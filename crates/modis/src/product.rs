//! Platforms, products and spectral bands.

use std::fmt;

/// The two MODIS host platforms. `MOD*` product names refer to Terra,
/// `MYD*` to Aqua.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Platform {
    /// EOS AM-1, in operation since 2000, ~10:30 descending node.
    Terra,
    /// EOS PM-1, in operation since 2002, ~13:30 ascending node.
    Aqua,
}

impl Platform {
    /// Product prefix: `MOD` for Terra, `MYD` for Aqua.
    pub fn prefix(&self) -> &'static str {
        match self {
            Platform::Terra => "MOD",
            Platform::Aqua => "MYD",
        }
    }

    /// First year with data for this platform.
    pub fn first_year(&self) -> i32 {
        match self {
            Platform::Terra => 2000,
            Platform::Aqua => 2002,
        }
    }

    /// Both platforms.
    pub fn all() -> [Platform; 2] {
        [Platform::Terra, Platform::Aqua]
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Platform::Terra => write!(f, "Terra"),
            Platform::Aqua => write!(f, "Aqua"),
        }
    }
}

/// The three product families the workflow consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProductKind {
    /// Level-1B calibrated radiances at 1 km (`MOD021KM`).
    Mod02,
    /// Geolocation at 1 km (`MOD03`).
    Mod03,
    /// Level-2 cloud product (`MOD06_L2`).
    Mod06,
}

impl ProductKind {
    /// LAADS short name for the product on `platform`.
    pub fn short_name(&self, platform: Platform) -> &'static str {
        match (self, platform) {
            (ProductKind::Mod02, Platform::Terra) => "MOD021KM",
            (ProductKind::Mod02, Platform::Aqua) => "MYD021KM",
            (ProductKind::Mod03, Platform::Terra) => "MOD03",
            (ProductKind::Mod03, Platform::Aqua) => "MYD03",
            (ProductKind::Mod06, Platform::Terra) => "MOD06_L2",
            (ProductKind::Mod06, Platform::Aqua) => "MYD06_L2",
        }
    }

    /// Parse a short name back to `(kind, platform)`.
    pub fn parse_short_name(name: &str) -> Option<(ProductKind, Platform)> {
        let platform = if name.starts_with("MOD") {
            Platform::Terra
        } else if name.starts_with("MYD") {
            Platform::Aqua
        } else {
            return None;
        };
        let kind = match &name[3..] {
            "021KM" => ProductKind::Mod02,
            "03" => ProductKind::Mod03,
            "06_L2" => ProductKind::Mod06,
            _ => return None,
        };
        Some((kind, platform))
    }

    /// Nominal archive volume per day (from the paper §III: ≈32 GB MOD02,
    /// 8.4 GB MOD03, 18 GB MOD06 per day of 288 granules).
    pub fn nominal_daily_bytes(&self) -> u64 {
        match self {
            ProductKind::Mod02 => 32_000_000_000,
            ProductKind::Mod03 => 8_400_000_000,
            ProductKind::Mod06 => 18_000_000_000,
        }
    }

    /// All three products.
    pub fn all() -> [ProductKind; 3] {
        [ProductKind::Mod02, ProductKind::Mod03, ProductKind::Mod06]
    }
}

impl fmt::Display for ProductKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProductKind::Mod02 => write!(f, "MOD02"),
            ProductKind::Mod03 => write!(f, "MOD03"),
            ProductKind::Mod06 => write!(f, "MOD06"),
        }
    }
}

/// The six MODIS bands used by AICCA/RICC tiles (1-based band numbers).
/// Bands 6 and 7 are shortwave-infrared reflective bands, 20 and 28–31 are
/// thermal emissive bands — the combination is informative for cloud texture
/// and phase and remains available at night (except 6/7).
pub const AICCA_BANDS: [u8; 6] = [6, 7, 20, 28, 29, 31];

/// Center wavelength in micrometres for each MODIS band (1-based index into
/// a table of 36). Values follow the MODIS instrument specification closely
/// enough for the synthesizer's toy radiative model.
pub fn band_center_um(band: u8) -> f64 {
    const CENTERS: [f64; 36] = [
        0.645, 0.858, 0.469, 0.555, 1.240, 1.640, 2.130, 0.412, 0.443, 0.488, // 1-10
        0.531, 0.551, 0.667, 0.678, 0.748, 0.869, 0.905, 0.936, 0.940, 3.750, // 11-20
        3.959, 3.959, 4.050, 4.465, 4.515, 1.375, 6.715, 7.325, 8.550, 9.730, // 21-30
        11.030, 12.020, 13.335, 13.635, 13.935, 14.235, // 31-36
    ];
    assert!((1..=36).contains(&band), "MODIS bands are 1–36, got {band}");
    CENTERS[(band - 1) as usize]
}

/// Whether a band is reflective solar (daylight only) as opposed to thermal
/// emissive (available day and night). Bands 1–19 and 26 are reflective.
pub fn is_reflective_band(band: u8) -> bool {
    (1..=19).contains(&band) || band == 26
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_match_laads_conventions() {
        assert_eq!(ProductKind::Mod02.short_name(Platform::Terra), "MOD021KM");
        assert_eq!(ProductKind::Mod02.short_name(Platform::Aqua), "MYD021KM");
        assert_eq!(ProductKind::Mod03.short_name(Platform::Terra), "MOD03");
        assert_eq!(ProductKind::Mod06.short_name(Platform::Aqua), "MYD06_L2");
    }

    #[test]
    fn parse_round_trip() {
        for kind in ProductKind::all() {
            for platform in Platform::all() {
                let name = kind.short_name(platform);
                assert_eq!(ProductKind::parse_short_name(name), Some((kind, platform)));
            }
        }
        assert_eq!(ProductKind::parse_short_name("MOD35"), None);
        assert_eq!(ProductKind::parse_short_name("VIIRS"), None);
    }

    #[test]
    fn daily_volumes_match_paper() {
        assert_eq!(ProductKind::Mod02.nominal_daily_bytes(), 32_000_000_000);
        assert_eq!(ProductKind::Mod03.nominal_daily_bytes(), 8_400_000_000);
        assert_eq!(ProductKind::Mod06.nominal_daily_bytes(), 18_000_000_000);
    }

    #[test]
    fn aicca_bands_are_valid_and_sorted() {
        assert_eq!(AICCA_BANDS.len(), 6);
        let mut sorted = AICCA_BANDS;
        sorted.sort_unstable();
        assert_eq!(sorted, AICCA_BANDS);
        for b in AICCA_BANDS {
            assert!((1..=36).contains(&b));
            let _ = band_center_um(b);
        }
    }

    #[test]
    fn band_wavelengths_sane() {
        // Band 1 is red visible, band 31 the classic 11 µm thermal window.
        assert!((band_center_um(1) - 0.645).abs() < 1e-9);
        assert!((band_center_um(31) - 11.03).abs() < 1e-9);
        // All in MODIS's 0.4–14.4 µm range.
        for b in 1..=36 {
            let wl = band_center_um(b);
            assert!((0.4..=14.4).contains(&wl), "band {b}: {wl}");
        }
    }

    #[test]
    fn reflective_vs_emissive_split() {
        assert!(is_reflective_band(1));
        assert!(is_reflective_band(6));
        assert!(is_reflective_band(7));
        assert!(is_reflective_band(26));
        assert!(!is_reflective_band(20));
        assert!(!is_reflective_band(31));
        assert!(!is_reflective_band(36));
    }

    #[test]
    #[should_panic(expected = "MODIS bands are 1–36")]
    fn band_zero_panics() {
        band_center_um(0);
    }

    #[test]
    fn platform_metadata() {
        assert_eq!(Platform::Terra.prefix(), "MOD");
        assert_eq!(Platform::Aqua.prefix(), "MYD");
        assert_eq!(Platform::Terra.first_year(), 2000);
        assert_eq!(Platform::Aqua.first_year(), 2002);
        assert_eq!(Platform::Terra.to_string(), "Terra");
    }
}
