//! Granule identity and naming.
//!
//! MODIS observations are binned into 5-minute *granules* (scenes); a day
//! holds 288 slots. LAADS names files
//! `<SHORTNAME>.A<YYYY><DDD>.<HHMM>.<collection>.<production>.hdf`; we keep
//! the convention (with an `.eogr` extension for our container) so that the
//! download/preprocess stages exercise realistic name parsing.

use crate::product::{Platform, ProductKind};
use eoml_util::timebase::{CivilDate, UtcTime};
use std::fmt;
use std::time::Duration;

/// Number of 5-minute granule slots in a day.
pub const SLOTS_PER_DAY: u16 = 288;

/// Collection (processing version) used in filenames; 061 is the current
/// MODIS collection.
pub const COLLECTION: &str = "061";

/// Identity of one 5-minute granule: platform + date + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GranuleId {
    /// Host platform.
    pub platform: Platform,
    /// Acquisition date (UTC).
    pub date: CivilDate,
    /// 5-minute slot within the day, `0..288`.
    pub slot: u16,
}

impl GranuleId {
    /// Construct; panics if `slot >= 288`.
    pub fn new(platform: Platform, date: CivilDate, slot: u16) -> Self {
        assert!(slot < SLOTS_PER_DAY, "slot {slot} out of range");
        Self {
            platform,
            date,
            slot,
        }
    }

    /// Acquisition start time (UTC).
    pub fn start_time(&self) -> UtcTime {
        UtcTime::from_date(self.date) + Duration::from_secs(self.slot as u64 * 300)
    }

    /// Seconds since the platform's epoch-of-day 0 — used by the
    /// synthesizer to phase the orbit (continuous across days).
    pub fn orbit_time_s(&self) -> f64 {
        self.date.days_from_epoch() as f64 * 86_400.0 + self.slot as f64 * 300.0
    }

    /// LAADS-convention file name for `product` of this granule.
    /// Example: `MOD021KM.A2022001.0005.061.2022003141500.eogr`.
    pub fn file_name(&self, product: ProductKind) -> String {
        self.file(product).to_string()
    }

    /// [`file_name`](Self::file_name) as something that prints, for a
    /// caller that writes the name into a buffer of its own.
    pub fn file(&self, product: ProductKind) -> FileName {
        FileName {
            granule: *self,
            product,
        }
    }

    /// Append `.A<YYYY><DDD>.<HHMM>`, the acquisition part of both names.
    fn push_acquisition(&self, name: &mut NameBuf) {
        let mins = i32::from(self.slot) * 5;
        name.push(".A");
        name.push_padded(self.date.year(), 4);
        name.push_padded(self.date.ordinal().into(), 3);
        name.push(".");
        name.push_padded(mins / 60, 2);
        name.push_padded(mins % 60, 2);
    }

    /// Parse a file name produced by [`file_name`](Self::file_name).
    /// Returns the id and the product kind.
    pub fn parse_file_name(name: &str) -> Option<(GranuleId, ProductKind)> {
        let mut parts = name.split('.');
        let short = parts.next()?;
        let (kind, platform) = ProductKind::parse_short_name(short)?;
        let adate = parts.next()?;
        if !adate.starts_with('A') || adate.len() != 8 {
            return None;
        }
        let year: i32 = adate[1..5].parse().ok()?;
        let doy: u16 = adate[5..8].parse().ok()?;
        let date = CivilDate::from_ordinal(year, doy)?;
        let hhmm = parts.next()?;
        if hhmm.len() != 4 {
            return None;
        }
        let hh: u16 = hhmm[..2].parse().ok()?;
        let mm: u16 = hhmm[2..].parse().ok()?;
        if !mm.is_multiple_of(5) || hh >= 24 || mm >= 60 {
            return None;
        }
        let slot = hh * 12 + mm / 5;
        Some((GranuleId::new(platform, date, slot), kind))
    }

    /// All granules of a day in slot order.
    pub fn day_granules(platform: Platform, date: CivilDate) -> impl Iterator<Item = GranuleId> {
        (0..SLOTS_PER_DAY).map(move |slot| GranuleId::new(platform, date, slot))
    }
}

impl fmt::Display for GranuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut name = NameBuf::default();
        name.push(self.platform.prefix());
        self.push_acquisition(&mut name);
        f.write_str(name.as_str())
    }
}

/// The file name of one product of a granule, printed on demand
/// ([`GranuleId::file`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileName {
    granule: GranuleId,
    product: ProductKind,
}

impl fmt::Display for FileName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = &self.granule;
        // Production timestamp: deterministic fiction two days after
        // acquisition, as LAADS production lags acquisition.
        let prod_date = CivilDate::from_days_from_epoch(g.date.days_from_epoch() + 2);
        let mut name = NameBuf::default();
        name.push(self.product.short_name(g.platform));
        g.push_acquisition(&mut name);
        name.push(".");
        name.push(COLLECTION);
        name.push(".");
        name.push_padded(prod_date.year(), 4);
        name.push_padded(prod_date.ordinal().into(), 3);
        name.push("141500.eogr");
        f.write_str(name.as_str())
    }
}

/// A granule name assembled on the stack, so that it reaches its `String`
/// or `Formatter` in one write of its final length. 64 bytes hold the
/// longest file name even with 11-character years.
struct NameBuf {
    bytes: [u8; 64],
    len: usize,
}

impl Default for NameBuf {
    fn default() -> Self {
        Self {
            bytes: [0; 64],
            len: 0,
        }
    }
}

impl NameBuf {
    fn push(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    fn push_bytes(&mut self, b: &[u8]) {
        self.bytes[self.len..self.len + b.len()].copy_from_slice(b);
        self.len += b.len();
    }

    /// Append `v` as `format!("{v:0width$}")` prints it: the sign, then
    /// zeros up to `width` characters, then the digits.
    fn push_padded(&mut self, v: i32, width: usize) {
        // Filled with '0' first, so starting the slice early pads it.
        let mut digits = [b'0'; 11];
        let mut n = v.unsigned_abs();
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0 {
            self.push("-");
            at = at.min(digits.len() + 1 - width.max(1));
        } else {
            at = at.min(digits.len() - width);
        }
        self.push_bytes(&digits[at..]);
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("ASCII name")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day1() -> CivilDate {
        CivilDate::new(2022, 1, 1).unwrap()
    }

    #[test]
    fn slot_times() {
        let g = GranuleId::new(Platform::Terra, day1(), 0);
        assert_eq!(g.start_time().iso8601(), "2022-01-01T00:00:00Z");
        assert_eq!(g.to_string(), "MOD.A2022001.0000");
        let g = GranuleId::new(Platform::Terra, day1(), 1);
        assert_eq!(g.to_string(), "MOD.A2022001.0005");
        let g = GranuleId::new(Platform::Terra, day1(), 287);
        assert_eq!(g.to_string(), "MOD.A2022001.2355");
        assert_eq!(g.start_time().iso8601(), "2022-01-01T23:55:00Z");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_288_panics() {
        GranuleId::new(Platform::Terra, day1(), 288);
    }

    #[test]
    fn file_name_convention() {
        let g = GranuleId::new(Platform::Terra, day1(), 1);
        let name = g.file_name(ProductKind::Mod02);
        assert!(
            name.starts_with("MOD021KM.A2022001.0005.061."),
            "bad name {name}"
        );
        assert!(name.ends_with(".eogr"));
        let name3 = g.file_name(ProductKind::Mod03);
        assert!(name3.starts_with("MOD03.A2022001.0005."));
    }

    #[test]
    fn file_name_round_trip() {
        for slot in [0, 1, 100, 287] {
            for product in ProductKind::all() {
                for platform in Platform::all() {
                    let g = GranuleId::new(platform, day1(), slot);
                    let name = g.file_name(product);
                    let (parsed, kind) = GranuleId::parse_file_name(&name)
                        .unwrap_or_else(|| panic!("failed to parse {name}"));
                    assert_eq!(parsed, g);
                    assert_eq!(kind, product);
                }
            }
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(GranuleId::parse_file_name("garbage").is_none());
        assert!(GranuleId::parse_file_name("MOD021KM.2022001.0005.061.x.eogr").is_none());
        assert!(GranuleId::parse_file_name("MOD021KM.A2022400.0005.061.x.eogr").is_none());
        assert!(GranuleId::parse_file_name("MOD021KM.A2022001.0007.061.x.eogr").is_none());
        assert!(GranuleId::parse_file_name("MOD021KM.A2022001.2500.061.x.eogr").is_none());
    }

    #[test]
    fn day_granules_covers_day() {
        let all: Vec<_> = GranuleId::day_granules(Platform::Aqua, day1()).collect();
        assert_eq!(all.len(), 288);
        assert_eq!(all[0].to_string(), "MYD.A2022001.0000");
        assert_eq!(all[287].to_string(), "MYD.A2022001.2355");
        // Unique and sorted.
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn orbit_time_continuous_across_days() {
        let g1 = GranuleId::new(Platform::Terra, day1(), 287);
        let g2 = GranuleId::new(Platform::Terra, day1().succ(), 0);
        assert!((g2.orbit_time_s() - g1.orbit_time_s() - 300.0).abs() < 1e-9);
    }

    /// The names as `format!` wrote them before they were assembled on the
    /// stack; kept here as the oracle.
    fn oracle_names(g: GranuleId, product: ProductKind) -> (String, String) {
        let short = match product {
            ProductKind::Mod02 => format!("{}021KM", g.platform.prefix()),
            ProductKind::Mod03 => format!("{}03", g.platform.prefix()),
            ProductKind::Mod06 => format!("{}06_L2", g.platform.prefix()),
        };
        let mins = g.slot as u32 * 5;
        let hhmm = format!("{:02}{:02}", mins / 60, mins % 60);
        let prod_date = CivilDate::from_days_from_epoch(g.date.days_from_epoch() + 2);
        let file = format!(
            "{}.A{:04}{:03}.{}.{}.{:04}{:03}141500.eogr",
            short,
            g.date.year(),
            g.date.ordinal(),
            hhmm,
            COLLECTION,
            prod_date.year(),
            prod_date.ordinal(),
        );
        let display = format!(
            "{}.A{:04}{:03}.{}",
            g.platform.prefix(),
            g.date.year(),
            g.date.ordinal(),
            hhmm
        );
        (file, display)
    }

    #[test]
    fn names_equal_the_format_oracle_on_every_slot() {
        let dates = [
            (2022, 1, 1),
            (2020, 2, 28),
            (2020, 2, 29),
            (2020, 12, 30),
            (2020, 12, 31),
            (2021, 12, 31),
            (999, 3, 4),
            (12345, 6, 7),
            (-5, 12, 31),
        ];
        for (y, m, d) in dates {
            let date = CivilDate::new(y, m, d).unwrap();
            for platform in Platform::all() {
                for g in GranuleId::day_granules(platform, date) {
                    for product in ProductKind::all() {
                        let (file, display) = oracle_names(g, product);
                        let name = g.file_name(product);
                        assert_eq!(name, file);
                        assert_eq!(name.capacity(), name.len(), "{name}");
                        assert_eq!(g.to_string(), display);
                    }
                }
            }
        }
        // The production date crosses into the next year.
        let g = GranuleId::new(Platform::Aqua, CivilDate::new(2020, 12, 30).unwrap(), 0);
        let name = g.file_name(ProductKind::Mod06);
        assert!(name.ends_with(".2021001141500.eogr"), "{name}");
    }

    #[test]
    fn display_compact() {
        let g = GranuleId::new(Platform::Aqua, day1(), 130);
        assert_eq!(g.to_string(), "MYD.A2022001.1050");
    }
}
