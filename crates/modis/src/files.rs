//! Conversions between in-memory [`Swath`]s and on-disk product containers.
//!
//! The real pipeline reads three separate HDF4 files per granule and
//! co-registers them; this module produces the equivalent three `EOGR`
//! containers from a synthesized swath and reassembles a swath from them
//! (with validation), so the preprocessing stage exercises the same
//! "integrate three products at each time step" logic the paper describes.

use crate::container::{Container, ContainerError, Dataset, DatasetData};
use crate::granule::GranuleId;
use crate::product::{Platform, ProductKind};
use crate::synth::{Swath, SwathDims};
use eoml_util::timebase::CivilDate;
use std::fmt;

/// Errors from reassembling a swath out of product containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProductFileError {
    /// Underlying container decode failure.
    Container(ContainerError),
    /// A required attribute is missing or malformed.
    BadAttr(&'static str),
    /// A required dataset is missing.
    MissingDataset(String),
    /// Dataset has the wrong type or shape.
    BadDataset(String),
    /// The three products disagree about which granule they belong to.
    GranuleMismatch,
}

impl fmt::Display for ProductFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProductFileError::Container(e) => write!(f, "container error: {e}"),
            ProductFileError::BadAttr(a) => write!(f, "bad or missing attribute {a:?}"),
            ProductFileError::MissingDataset(d) => write!(f, "missing dataset {d:?}"),
            ProductFileError::BadDataset(d) => write!(f, "bad dataset {d:?}"),
            ProductFileError::GranuleMismatch => write!(f, "products are from different granules"),
        }
    }
}

impl std::error::Error for ProductFileError {}

impl From<ContainerError> for ProductFileError {
    fn from(e: ContainerError) -> Self {
        ProductFileError::Container(e)
    }
}

fn base_attrs(id: GranuleId, dims: SwathDims, product: ProductKind) -> Container {
    Container::new()
        .with_attr("product", product.short_name(id.platform))
        .with_attr("platform", id.platform.to_string())
        .with_attr("date", id.date.to_string())
        .with_attr("slot", id.slot.to_string())
        .with_attr("lines", dims.lines.to_string())
        .with_attr("pixels", dims.pixels.to_string())
        .with_attr("start_time", id.start_time().iso8601())
}

fn plane_dims(dims: SwathDims) -> Vec<u32> {
    vec![dims.lines as u32, dims.pixels as u32]
}

/// MOD02 from its parts; `planes` are the radiance planes of `bands`.
fn mod02(
    id: GranuleId,
    dims: SwathDims,
    day: bool,
    bands: &[u8],
    planes: Vec<Vec<f32>>,
) -> Container {
    let band_list: Vec<String> = bands.iter().map(|b| b.to_string()).collect();
    let mut c = base_attrs(id, dims, ProductKind::Mod02)
        .with_attr("day", day.to_string())
        .with_attr("bands", band_list.join(","));
    for (&band, plane) in bands.iter().zip(planes) {
        c = c.with_dataset(Dataset::new(
            format!("radiance_b{band:02}"),
            plane_dims(dims),
            DatasetData::F32(plane),
        ));
    }
    c
}

/// MOD03 from its parts.
fn mod03(id: GranuleId, dims: SwathDims, lat: Vec<f32>, lon: Vec<f32>, land: Vec<u8>) -> Container {
    let f32s = |name: &str, v| Dataset::new(name, plane_dims(dims), DatasetData::F32(v));
    base_attrs(id, dims, ProductKind::Mod03)
        .with_dataset(f32s("latitude", lat))
        .with_dataset(f32s("longitude", lon))
        .with_dataset(Dataset::new(
            "land_sea_mask",
            plane_dims(dims),
            DatasetData::U8(land),
        ))
}

/// MOD06 from its parts.
fn mod06(
    id: GranuleId,
    dims: SwathDims,
    cloud: Vec<u8>,
    cot: Vec<f32>,
    ctp: Vec<f32>,
    cer: Vec<f32>,
) -> Container {
    let f32s = |name: &str, v| Dataset::new(name, plane_dims(dims), DatasetData::F32(v));
    base_attrs(id, dims, ProductKind::Mod06)
        .with_dataset(Dataset::new(
            "cloud_mask",
            plane_dims(dims),
            DatasetData::U8(cloud),
        ))
        .with_dataset(f32s("cloud_optical_thickness", cot))
        .with_dataset(f32s("cloud_top_pressure", ctp))
        .with_dataset(f32s("cloud_effective_radius", cer))
}

/// Build the MOD02 (radiances) container for a swath.
pub fn to_mod02(s: &Swath) -> Container {
    mod02(s.id, s.dims, s.day, &s.bands, s.radiance.clone())
}

/// Build the MOD03 (geolocation + land mask) container for a swath.
pub fn to_mod03(s: &Swath) -> Container {
    mod03(s.id, s.dims, s.lat.clone(), s.lon.clone(), s.land.clone())
}

/// Build the MOD06 (cloud products) container for a swath.
pub fn to_mod06(s: &Swath) -> Container {
    mod06(
        s.id,
        s.dims,
        s.cloud.clone(),
        s.cot.clone(),
        s.ctp.clone(),
        s.cer.clone(),
    )
}

/// The MOD02, MOD03 and MOD06 containers of a swath that is no longer
/// needed: its planes move into them, nothing is copied.
pub fn into_products(s: Swath) -> [Container; 3] {
    [
        mod02(s.id, s.dims, s.day, &s.bands, s.radiance),
        mod03(s.id, s.dims, s.lat, s.lon, s.land),
        mod06(s.id, s.dims, s.cloud, s.cot, s.ctp, s.cer),
    ]
}

fn parse_id(c: &Container) -> Result<(GranuleId, SwathDims), ProductFileError> {
    let platform = match c.attrs.get("platform").map(String::as_str) {
        Some("Terra") => Platform::Terra,
        Some("Aqua") => Platform::Aqua,
        _ => return Err(ProductFileError::BadAttr("platform")),
    };
    let date = c
        .attrs
        .get("date")
        .and_then(|d| {
            let mut parts = d.split('-');
            let y: i32 = parts.next()?.parse().ok()?;
            let m: u8 = parts.next()?.parse().ok()?;
            let dd: u8 = parts.next()?.parse().ok()?;
            CivilDate::new(y, m, dd)
        })
        .ok_or(ProductFileError::BadAttr("date"))?;
    let slot: u16 = c
        .attrs
        .get("slot")
        .and_then(|s| s.parse().ok())
        .filter(|&s| s < crate::granule::SLOTS_PER_DAY)
        .ok_or(ProductFileError::BadAttr("slot"))?;
    let lines: usize = c
        .attrs
        .get("lines")
        .and_then(|s| s.parse().ok())
        .ok_or(ProductFileError::BadAttr("lines"))?;
    let pixels: usize = c
        .attrs
        .get("pixels")
        .and_then(|s| s.parse().ok())
        .ok_or(ProductFileError::BadAttr("pixels"))?;
    Ok((
        GranuleId::new(platform, date, slot),
        SwathDims { lines, pixels },
    ))
}

/// Take dataset `name` out of `c` (leaving it empty there) if `pick` accepts
/// its payload as `n` elements of the wanted type.
fn take_dataset<T>(
    c: &mut Container,
    name: &str,
    n: usize,
    pick: impl FnOnce(DatasetData) -> Option<Vec<T>>,
) -> Result<Vec<T>, ProductFileError> {
    let ds = c
        .datasets
        .iter_mut()
        .find(|d| d.name == name)
        .ok_or_else(|| ProductFileError::MissingDataset(name.to_string()))?;
    let data = std::mem::replace(&mut ds.data, DatasetData::U8(Vec::new()));
    pick(data)
        .filter(|v| v.len() == n)
        .ok_or_else(|| ProductFileError::BadDataset(name.to_string()))
}

fn f32_dataset(c: &mut Container, name: &str, n: usize) -> Result<Vec<f32>, ProductFileError> {
    take_dataset(c, name, n, |data| match data {
        DatasetData::F32(v) => Some(v),
        _ => None,
    })
}

fn u8_dataset(c: &mut Container, name: &str, n: usize) -> Result<Vec<u8>, ProductFileError> {
    take_dataset(c, name, n, |data| match data {
        DatasetData::U8(v) => Some(v),
        _ => None,
    })
}

/// Reassemble a [`Swath`] from the three product containers, validating
/// shapes and that all three belong to the same granule.
pub fn swath_from_products(
    mod02: &Container,
    mod03: &Container,
    mod06: &Container,
) -> Result<Swath, ProductFileError> {
    swath_from_containers(mod02.clone(), mod03.clone(), mod06.clone())
}

/// [`swath_from_products`] for containers that are no longer needed: their
/// planes move into the swath, nothing is copied.
pub fn swath_from_containers(
    mut mod02: Container,
    mut mod03: Container,
    mut mod06: Container,
) -> Result<Swath, ProductFileError> {
    let (id, dims) = parse_id(&mod02)?;
    let (id3, dims3) = parse_id(&mod03)?;
    let (id6, dims6) = parse_id(&mod06)?;
    if id != id3 || id != id6 || dims != dims3 || dims != dims6 {
        return Err(ProductFileError::GranuleMismatch);
    }
    let n = dims.len();

    let bands: Vec<u8> = mod02
        .attrs
        .get("bands")
        .ok_or(ProductFileError::BadAttr("bands"))?
        .split(',')
        .map(|s| s.parse::<u8>())
        .collect::<Result<_, _>>()
        .map_err(|_| ProductFileError::BadAttr("bands"))?;
    let day: bool = mod02
        .attrs
        .get("day")
        .and_then(|s| s.parse().ok())
        .ok_or(ProductFileError::BadAttr("day"))?;

    let radiance = bands
        .iter()
        .map(|band| f32_dataset(&mut mod02, &format!("radiance_b{band:02}"), n))
        .collect::<Result<_, _>>()?;

    Ok(Swath {
        id,
        dims,
        bands,
        radiance,
        lat: f32_dataset(&mut mod03, "latitude", n)?,
        lon: f32_dataset(&mut mod03, "longitude", n)?,
        land: u8_dataset(&mut mod03, "land_sea_mask", n)?,
        cloud: u8_dataset(&mut mod06, "cloud_mask", n)?,
        cot: f32_dataset(&mut mod06, "cloud_optical_thickness", n)?,
        ctp: f32_dataset(&mut mod06, "cloud_top_pressure", n)?,
        cer: f32_dataset(&mut mod06, "cloud_effective_radius", n)?,
        day,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SwathSynthesizer;

    fn swath() -> Swath {
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        sy.synthesize(GranuleId::new(
            Platform::Terra,
            CivilDate::new(2022, 1, 1).unwrap(),
            100,
        ))
    }

    #[test]
    fn product_round_trip_preserves_swath() {
        let s = swath();
        let m02 = to_mod02(&s);
        let m03 = to_mod03(&s);
        let m06 = to_mod06(&s);
        let back = swath_from_products(&m02, &m03, &m06).unwrap();
        assert_eq!(back.id, s.id);
        assert_eq!(back.dims, s.dims);
        assert_eq!(back.bands, s.bands);
        assert_eq!(back.radiance, s.radiance);
        assert_eq!(back.lat, s.lat);
        assert_eq!(back.lon, s.lon);
        assert_eq!(back.land, s.land);
        assert_eq!(back.cloud, s.cloud);
        assert_eq!(back.cot, s.cot);
        assert_eq!(back.ctp, s.ctp);
        assert_eq!(back.cer, s.cer);
        assert_eq!(back.day, s.day);
    }

    #[test]
    fn owning_conversions_equal_the_borrowing_ones() {
        let s = swath();
        let borrowed = [to_mod02(&s), to_mod03(&s), to_mod06(&s)];
        let [m02, m03, m06] = into_products(s.clone());
        assert_eq!([m02.clone(), m03.clone(), m06.clone()], borrowed);
        let back = swath_from_containers(m02, m03, m06).unwrap();
        assert_eq!(back.radiance, s.radiance);
        assert_eq!(back.lat, s.lat);
        assert_eq!(back.land, s.land);
        assert_eq!(back.cer, s.cer);
        assert_eq!((back.id, back.dims, back.day), (s.id, s.dims, s.day));
    }

    #[test]
    fn decoding_into_another_granules_planes_gives_the_same_swath() {
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        let date = CivilDate::new(2022, 1, 1).unwrap();
        let terra = |slot| GranuleId::new(Platform::Terra, date, slot);
        let day = (0..288).map(terra).find(|&g| sy.synthesize(g).day).unwrap();
        let night = (0..288)
            .map(terra)
            .find(|&g| !sy.synthesize(g).day)
            .unwrap();
        let aqua = GranuleId::new(Platform::Aqua, date, day.slot);
        let bits = |s: &Swath| -> Vec<Vec<u32>> {
            let mut planes: Vec<&[f32]> = s.radiance.iter().map(Vec::as_slice).collect();
            planes.extend([&s.lat[..], &s.lon[..], &s.cot[..], &s.ctp[..], &s.cer[..]]);
            planes
                .iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let mut held = sy.synthesize(day);
        let planes: Vec<*const f32> = held.radiance.iter().map(|p| p.as_ptr()).collect();
        for g in [night, day, aqua] {
            let fresh = sy.synthesize(g);
            let files = [to_mod02(&fresh), to_mod03(&fresh), to_mod06(&fresh)].map(|c| c.encode());
            let mut shells = into_products(held);
            for (shell, bytes) in shells.iter_mut().zip(&files) {
                shell.decode_into(&bytes[..], bytes.len() as u64).unwrap();
            }
            let [m02, m03, m06] = shells;
            held = swath_from_containers(m02, m03, m06).unwrap();
            assert_eq!(
                (held.id, held.dims, held.day),
                (fresh.id, fresh.dims, fresh.day)
            );
            assert_eq!(held.bands, fresh.bands);
            assert_eq!((&held.land, &held.cloud), (&fresh.land, &fresh.cloud));
            assert!(bits(&held) == bits(&fresh), "{g}");
        }
        let kept: Vec<*const f32> = held.radiance.iter().map(|p| p.as_ptr()).collect();
        assert_eq!(kept, planes, "a radiance plane was allocated again");
    }

    #[test]
    fn round_trip_through_bytes() {
        let s = swath();
        let m02 = Container::decode(&to_mod02(&s).encode()).unwrap();
        let m03 = Container::decode(&to_mod03(&s).encode()).unwrap();
        let m06 = Container::decode(&to_mod06(&s).encode()).unwrap();
        let back = swath_from_products(&m02, &m03, &m06).unwrap();
        assert_eq!(back.radiance, s.radiance);
    }

    #[test]
    fn mismatched_granules_rejected() {
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        let a = sy.synthesize(GranuleId::new(
            Platform::Terra,
            CivilDate::new(2022, 1, 1).unwrap(),
            0,
        ));
        let b = sy.synthesize(GranuleId::new(
            Platform::Terra,
            CivilDate::new(2022, 1, 1).unwrap(),
            1,
        ));
        let err = swath_from_products(&to_mod02(&a), &to_mod03(&b), &to_mod06(&a)).unwrap_err();
        assert_eq!(err, ProductFileError::GranuleMismatch);
    }

    #[test]
    fn missing_dataset_rejected() {
        let s = swath();
        let mut m03 = to_mod03(&s);
        m03.datasets.retain(|d| d.name != "latitude");
        let err = swath_from_products(&to_mod02(&s), &m03, &to_mod06(&s)).unwrap_err();
        assert_eq!(err, ProductFileError::MissingDataset("latitude".into()));
    }

    #[test]
    fn missing_attr_rejected() {
        let s = swath();
        let mut m02 = to_mod02(&s);
        m02.attrs.remove("slot");
        let err = swath_from_products(&m02, &to_mod03(&s), &to_mod06(&s)).unwrap_err();
        assert_eq!(err, ProductFileError::BadAttr("slot"));
    }

    #[test]
    fn mod02_container_has_expected_attrs() {
        let s = swath();
        let c = to_mod02(&s);
        assert_eq!(c.attrs["product"], "MOD021KM");
        assert_eq!(c.attrs["platform"], "Terra");
        assert_eq!(c.attrs["bands"], "6,7,20,28,29,31");
        assert_eq!(c.datasets.len(), 6);
    }

    #[test]
    fn container_sizes_scale_with_dims() {
        let s = swath();
        let m02 = to_mod02(&s).encode();
        let m03 = to_mod03(&s).encode();
        let m06 = to_mod06(&s).encode();
        // 6 f32 planes vs 2 f32 + 1 u8 vs 3 f32 + 1 u8.
        assert!(m02.len() > m06.len());
        assert!(m06.len() > m03.len());
        // MOD02 ≈ 6 × 4 bytes per pixel.
        let n = s.dims.len();
        assert!((m02.len() as f64 - (24 * n) as f64).abs() / ((24 * n) as f64) < 0.01);
    }
}
