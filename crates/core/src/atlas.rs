//! The AICCA atlas builder — downstream analytics over labeled tiles.
//!
//! AICCA (the "AI-driven Cloud Classification Atlas") aggregates decades of
//! labeled ocean-cloud tiles into per-class climatology: how often each of
//! the 42 classes occurs, where (zonally), and with what cloud physics.
//! This module builds that atlas incrementally from the labeled NetCDF
//! files the workflow ships — the "daily to decadal climate analysis" the
//! paper's §II-B describes as the product's purpose.

use eoml_ncdf::NcFile;
use eoml_preprocess::tiles::Tile;
use eoml_preprocess::writer::{read_tiles_nc, TileNcError};

/// Number of 10° latitude bands.
pub const LAT_BANDS: usize = 18;

/// Aggregated statistics for one cloud class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Tiles assigned to this class.
    pub count: usize,
    /// Running sums for means.
    sum_cot: f64,
    sum_ctp: f64,
    sum_cer: f64,
    /// Tile counts per 10° latitude band (index 0 = 90S–80S).
    pub lat_hist: [usize; LAT_BANDS],
}

impl Default for ClassStats {
    fn default() -> Self {
        Self {
            count: 0,
            sum_cot: 0.0,
            sum_ctp: 0.0,
            sum_cer: 0.0,
            lat_hist: [0; LAT_BANDS],
        }
    }
}

impl ClassStats {
    /// Mean cloud optical thickness.
    pub fn mean_cot(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_cot / self.count as f64
        }
    }

    /// Mean cloud-top pressure, hPa.
    pub fn mean_ctp(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ctp / self.count as f64
        }
    }

    /// Mean effective radius, µm.
    pub fn mean_cer(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_cer / self.count as f64
        }
    }

    /// The latitude band (center, degrees) where this class peaks.
    pub fn peak_latitude(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (band, _) = self.lat_hist.iter().enumerate().max_by_key(|&(_, c)| *c)?;
        Some(-90.0 + 10.0 * band as f64 + 5.0)
    }
}

/// An incrementally built cloud-class atlas.
#[derive(Debug, Clone, PartialEq)]
pub struct Atlas {
    /// Per-class aggregates.
    pub classes: Vec<ClassStats>,
    /// Total tiles folded in.
    pub total: usize,
    /// Tile counts per latitude band across all classes.
    pub zonal: [usize; LAT_BANDS],
}

fn lat_band(lat: f64) -> usize {
    (((lat + 90.0) / 10.0) as usize).min(LAT_BANDS - 1)
}

impl Atlas {
    /// Empty atlas over `num_classes` classes (42 for AICCA).
    pub fn new(num_classes: usize) -> Self {
        Self {
            classes: vec![ClassStats::default(); num_classes],
            total: 0,
            zonal: [0; LAT_BANDS],
        }
    }

    /// Fold in labeled tiles. Labels outside `0..num_classes` are
    /// rejected.
    pub fn add_tiles(&mut self, tiles: &[Tile], labels: &[i32]) -> Result<(), String> {
        if tiles.len() != labels.len() {
            return Err(format!("{} tiles but {} labels", tiles.len(), labels.len()));
        }
        for (t, &l) in tiles.iter().zip(labels) {
            if l < 0 || l as usize >= self.classes.len() {
                return Err(format!("label {l} out of range"));
            }
            let band = lat_band(t.center_lat as f64);
            let c = &mut self.classes[l as usize];
            c.count += 1;
            c.sum_cot += t.mean_cot as f64;
            c.sum_ctp += t.mean_ctp as f64;
            c.sum_cer += t.mean_cer as f64;
            c.lat_hist[band] += 1;
            self.zonal[band] += 1;
            self.total += 1;
        }
        Ok(())
    }

    /// Fold in a labeled tile NetCDF file (as shipped by stage 5).
    pub fn add_file(&mut self, nc: &NcFile) -> Result<usize, String> {
        let (tiles, labels) = read_tiles_nc(nc).map_err(|e: TileNcError| e.to_string())?;
        let labels = labels.ok_or("file has unlabelled tiles")?;
        let n = tiles.len();
        self.add_tiles(&tiles, &labels)?;
        Ok(n)
    }

    /// Merge another atlas (same class count) into this one.
    pub fn merge(&mut self, other: &Atlas) {
        assert_eq!(self.classes.len(), other.classes.len());
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.count += b.count;
            a.sum_cot += b.sum_cot;
            a.sum_ctp += b.sum_ctp;
            a.sum_cer += b.sum_cer;
            for (x, y) in a.lat_hist.iter_mut().zip(&b.lat_hist) {
                *x += y;
            }
        }
        for (x, y) in self.zonal.iter_mut().zip(&other.zonal) {
            *x += y;
        }
        self.total += other.total;
    }

    /// Fraction of all tiles belonging to `class`.
    pub fn occurrence(&self, class: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.classes[class].count as f64 / self.total as f64
    }

    /// Number of classes with at least one tile.
    pub fn classes_observed(&self) -> usize {
        self.classes.iter().filter(|c| c.count > 0).count()
    }

    /// The `n` most frequent classes as `(class, count)`.
    pub fn dominant_classes(&self, n: usize) -> Vec<(usize, usize)> {
        let mut idx: Vec<(usize, usize)> = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.count))
            .filter(|&(_, c)| c > 0)
            .collect();
        idx.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        idx.truncate(n);
        idx
    }

    /// Render a compact text table of the observed classes.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>7} {:>8} {:>9} {:>8} {:>9}",
            "class", "tiles", "occur%", "COT", "CTP hPa", "CER µm", "peak lat"
        );
        for (i, c) in self.classes.iter().enumerate() {
            if c.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>5} {:>7} {:>7.2} {:>8.1} {:>9.0} {:>8.1} {:>9}",
                i,
                c.count,
                100.0 * self.occurrence(i),
                c.mean_cot(),
                c.mean_ctp(),
                c.mean_cer(),
                c.peak_latitude()
                    .map(|l| format!("{l:+.0}"))
                    .unwrap_or_default(),
            );
        }
        let _ = writeln!(
            out,
            "total {} tiles across {} classes",
            self.total,
            self.classes_observed()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_modis::granule::GranuleId;
    use eoml_modis::product::Platform;
    use eoml_util::timebase::CivilDate;

    fn tile(lat: f32, cot: f32, ctp: f32, cer: f32) -> Tile {
        Tile {
            granule: GranuleId::new(Platform::Terra, CivilDate::new(2022, 1, 1).unwrap(), 0),
            row: 0,
            col: 0,
            data: vec![0.0; 6 * 4],
            bands: vec![6, 7, 20, 28, 29, 31],
            size: 2,
            center_lat: lat,
            center_lon: 0.0,
            ocean_fraction: 1.0,
            cloud_fraction: 0.5,
            mean_cot: cot,
            mean_ctp: ctp,
            mean_cer: cer,
        }
    }

    #[test]
    fn aggregation_and_means() {
        let mut atlas = Atlas::new(42);
        let tiles = vec![
            tile(-12.0, 10.0, 800.0, 15.0),
            tile(-14.0, 20.0, 600.0, 25.0),
            tile(55.0, 5.0, 900.0, 10.0),
        ];
        atlas.add_tiles(&tiles, &[3, 3, 7]).unwrap();
        assert_eq!(atlas.total, 3);
        assert_eq!(atlas.classes_observed(), 2);
        let c3 = &atlas.classes[3];
        assert_eq!(c3.count, 2);
        assert!((c3.mean_cot() - 15.0).abs() < 1e-9);
        assert!((c3.mean_ctp() - 700.0).abs() < 1e-9);
        assert!((c3.mean_cer() - 20.0).abs() < 1e-9);
        // Both class-3 tiles sit in the 20S–10S band, whose center is 15S.
        assert_eq!(c3.peak_latitude(), Some(-15.0));
        assert!((atlas.occurrence(3) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lat_bands_are_correct() {
        assert_eq!(lat_band(-90.0), 0);
        assert_eq!(lat_band(-81.0), 0);
        assert_eq!(lat_band(-79.9), 1);
        assert_eq!(lat_band(0.0), 9);
        assert_eq!(lat_band(89.9), 17);
        assert_eq!(lat_band(90.0), 17);
    }

    #[test]
    fn label_validation() {
        let mut atlas = Atlas::new(42);
        let t = vec![tile(0.0, 1.0, 500.0, 10.0)];
        assert!(atlas.add_tiles(&t, &[42]).is_err());
        assert!(atlas.add_tiles(&t, &[-1]).is_err());
        assert!(atlas.add_tiles(&t, &[0, 1]).is_err());
        assert!(atlas.add_tiles(&t, &[41]).is_ok());
    }

    #[test]
    fn merge_equals_sequential() {
        let tiles: Vec<Tile> = (0..20)
            .map(|i| tile(i as f32 * 8.0 - 80.0, i as f32, 500.0 + i as f32, 10.0))
            .collect();
        let labels: Vec<i32> = (0..20).map(|i| i % 5).collect();
        let mut whole = Atlas::new(42);
        whole.add_tiles(&tiles, &labels).unwrap();
        let mut a = Atlas::new(42);
        a.add_tiles(&tiles[..9], &labels[..9]).unwrap();
        let mut b = Atlas::new(42);
        b.add_tiles(&tiles[9..], &labels[9..]).unwrap();
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn dominant_classes_ordering() {
        let mut atlas = Atlas::new(10);
        let t = |n: usize| vec![tile(0.0, 1.0, 500.0, 10.0); n];
        atlas.add_tiles(&t(5), &[2; 5]).unwrap();
        atlas.add_tiles(&t(3), &[7; 3]).unwrap();
        atlas.add_tiles(&t(1), &[0; 1]).unwrap();
        assert_eq!(atlas.dominant_classes(2), vec![(2, 5), (7, 3)]);
        assert_eq!(atlas.dominant_classes(10).len(), 3);
    }

    #[test]
    fn summary_table_renders() {
        let mut atlas = Atlas::new(42);
        atlas
            .add_tiles(&[tile(-30.0, 12.0, 700.0, 18.0)], &[5])
            .unwrap();
        let table = atlas.summary_table();
        assert!(table.contains("class"));
        assert!(table.contains("    5 "), "{table}");
        assert!(table.contains("total 1 tiles across 1 classes"));
    }

    #[test]
    fn file_roundtrip_via_netcdf() {
        use eoml_preprocess::writer::{append_labels, write_tiles_nc};
        let tiles: Vec<Tile> = (0..4)
            .map(|i| {
                let mut t = tile(i as f32 * 10.0, 5.0, 600.0, 12.0);
                t.row = i;
                t
            })
            .collect();
        let mut nc = write_tiles_nc(&tiles).unwrap();
        append_labels(&mut nc, &[1, 1, 2, 3]).unwrap();
        let mut atlas = Atlas::new(42);
        let n = atlas.add_file(&nc).unwrap();
        assert_eq!(n, 4);
        assert_eq!(atlas.classes[1].count, 2);
        // A file without labels is rejected.
        let unlabeled = write_tiles_nc(&tiles).unwrap();
        assert!(atlas.add_file(&unlabeled).is_err());
    }
}
