//! Civil dates and UTC timestamps.
//!
//! MODIS data is organized by `(year, day-of-year)` directories and 5-minute
//! granule slots; this module provides exactly the calendar arithmetic the
//! catalog and workflow need, with no external dependency.

use std::fmt;
use std::ops::{Add, Sub};
use std::time::Duration;

/// A calendar date (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    year: i32,
    month: u8,
    day: u8,
}

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Whether `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

impl CivilDate {
    /// Construct, validating month/day ranges.
    pub fn new(year: i32, month: u8, day: u8) -> Option<Self> {
        if !(1..=12).contains(&month) {
            return None;
        }
        let dim = Self::days_in_month(year, month);
        if day == 0 || day > dim {
            return None;
        }
        Some(Self { year, month, day })
    }

    /// Days in `month` of `year`.
    pub fn days_in_month(year: i32, month: u8) -> u8 {
        if month == 2 && is_leap_year(year) {
            29
        } else {
            DAYS_IN_MONTH[(month - 1) as usize]
        }
    }

    /// Days in `year` (365 or 366).
    pub fn days_in_year(year: i32) -> u16 {
        if is_leap_year(year) {
            366
        } else {
            365
        }
    }

    /// Construct from year and 1-based day-of-year (the MODIS convention,
    /// e.g. `MOD021KM.A2022001.*` is day 1 of 2022).
    pub fn from_ordinal(year: i32, doy: u16) -> Option<Self> {
        if doy == 0 || doy > Self::days_in_year(year) {
            return None;
        }
        let mut remaining = doy;
        for month in 1..=12u8 {
            let dim = Self::days_in_month(year, month) as u16;
            if remaining <= dim {
                return Some(Self {
                    year,
                    month,
                    day: remaining as u8,
                });
            }
            remaining -= dim;
        }
        None
    }

    /// 1-based day-of-year.
    pub fn ordinal(&self) -> u16 {
        let mut doy = self.day as u16;
        for month in 1..self.month {
            doy += Self::days_in_month(self.year, month) as u16;
        }
        doy
    }

    /// Year component.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Month component (1–12).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// Day-of-month component (1–31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// Days since the civil epoch 1970-01-01 (may be negative).
    /// Algorithm from Howard Hinnant's `chrono`-compatible date algorithms.
    pub fn days_from_epoch(&self) -> i64 {
        let y = if self.month <= 2 {
            self.year - 1
        } else {
            self.year
        } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = (self.month as i64 + 9) % 12;
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Inverse of [`days_from_epoch`](Self::days_from_epoch).
    pub fn from_days_from_epoch(z: i64) -> Self {
        let z = z + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
        let year = if m <= 2 { y + 1 } else { y } as i32;
        Self {
            year,
            month: m,
            day: d,
        }
    }

    /// The next calendar day.
    pub fn succ(&self) -> Self {
        Self::from_days_from_epoch(self.days_from_epoch() + 1)
    }

    /// Iterator over `n` consecutive days starting at `self`.
    pub fn iter_days(&self, n: usize) -> impl Iterator<Item = CivilDate> {
        let start = *self;
        (0..n as i64).map(move |i| CivilDate::from_days_from_epoch(start.days_from_epoch() + i))
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A UTC instant with microsecond resolution, stored as seconds since the
/// Unix epoch. Leap seconds are ignored (as in POSIX time), which is the
/// convention MODIS filenames and the simulators use.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct UtcTime {
    secs: f64,
}

impl UtcTime {
    /// Midnight UTC at the start of `date`.
    pub fn from_date(date: CivilDate) -> Self {
        Self {
            secs: date.days_from_epoch() as f64 * 86_400.0,
        }
    }

    /// From date plus hour/minute/second components.
    pub fn from_date_hms(date: CivilDate, hour: u8, min: u8, sec: f64) -> Self {
        Self {
            secs: date.days_from_epoch() as f64 * 86_400.0
                + hour as f64 * 3600.0
                + min as f64 * 60.0
                + sec,
        }
    }

    /// The civil date containing this instant.
    pub fn date(&self) -> CivilDate {
        CivilDate::from_days_from_epoch((self.secs / 86_400.0).floor() as i64)
    }

    /// `(hour, minute, second)` within the UTC day.
    pub fn hms(&self) -> (u8, u8, f64) {
        let day_secs = self.secs.rem_euclid(86_400.0);
        let hour = (day_secs / 3600.0) as u8;
        let min = ((day_secs % 3600.0) / 60.0) as u8;
        let sec = day_secs % 60.0;
        (hour, min, sec)
    }

    /// Seconds elapsed since midnight UTC.
    pub fn seconds_of_day(&self) -> f64 {
        self.secs.rem_euclid(86_400.0)
    }

    /// ISO-8601 string with seconds precision, e.g. `2022-01-01T00:05:00Z`.
    pub fn iso8601(&self) -> String {
        let (h, m, s) = self.hms();
        format!("{}T{:02}:{:02}:{:02.0}Z", self.date(), h, m, s.floor())
    }
}

impl Add<Duration> for UtcTime {
    type Output = UtcTime;
    fn add(self, rhs: Duration) -> UtcTime {
        UtcTime {
            secs: self.secs + rhs.as_secs_f64(),
        }
    }
}

impl Sub<UtcTime> for UtcTime {
    type Output = Duration;
    fn sub(self, rhs: UtcTime) -> Duration {
        Duration::from_secs_f64((self.secs - rhs.secs).max(0.0))
    }
}

impl fmt::Display for UtcTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.iso8601())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2000));
        assert!(is_leap_year(2004));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2022));
        assert!(is_leap_year(2024));
    }

    #[test]
    fn date_validation() {
        assert!(CivilDate::new(2022, 2, 29).is_none());
        assert!(CivilDate::new(2024, 2, 29).is_some());
        assert!(CivilDate::new(2022, 13, 1).is_none());
        assert!(CivilDate::new(2022, 0, 1).is_none());
        assert!(CivilDate::new(2022, 4, 31).is_none());
        assert!(CivilDate::new(2022, 4, 30).is_some());
    }

    #[test]
    fn ordinal_round_trip() {
        // Exhaustive round-trip over two full years, one leap one not.
        for year in [2022, 2024] {
            for doy in 1..=CivilDate::days_in_year(year) {
                let d = CivilDate::from_ordinal(year, doy).unwrap();
                assert_eq!(d.ordinal(), doy, "{d}");
                assert_eq!(d.year(), year);
            }
        }
        assert!(CivilDate::from_ordinal(2022, 366).is_none());
        assert!(CivilDate::from_ordinal(2024, 366).is_some());
    }

    #[test]
    fn known_epoch_days() {
        assert_eq!(CivilDate::new(1970, 1, 1).unwrap().days_from_epoch(), 0);
        assert_eq!(CivilDate::new(1970, 1, 2).unwrap().days_from_epoch(), 1);
        assert_eq!(CivilDate::new(1969, 12, 31).unwrap().days_from_epoch(), -1);
        // 2022-01-01 is 18993 days after the epoch.
        assert_eq!(
            CivilDate::new(2022, 1, 1).unwrap().days_from_epoch(),
            18_993
        );
    }

    #[test]
    fn epoch_days_round_trip() {
        for z in (-20_000..40_000).step_by(137) {
            let d = CivilDate::from_days_from_epoch(z);
            assert_eq!(d.days_from_epoch(), z, "{d}");
        }
    }

    #[test]
    fn succ_and_iter_days() {
        let d = CivilDate::new(2022, 12, 31).unwrap();
        assert_eq!(d.succ(), CivilDate::new(2023, 1, 1).unwrap());
        let days: Vec<_> = CivilDate::new(2022, 2, 27).unwrap().iter_days(3).collect();
        assert_eq!(
            days,
            vec![
                CivilDate::new(2022, 2, 27).unwrap(),
                CivilDate::new(2022, 2, 28).unwrap(),
                CivilDate::new(2022, 3, 1).unwrap(),
            ]
        );
    }

    #[test]
    fn utc_time_components() {
        let d = CivilDate::new(2022, 1, 1).unwrap();
        let t = UtcTime::from_date_hms(d, 10, 35, 0.0);
        assert_eq!(t.date(), d);
        let (h, m, s) = t.hms();
        assert_eq!((h, m), (10, 35));
        assert!(s.abs() < 1e-9);
        assert_eq!(t.iso8601(), "2022-01-01T10:35:00Z");
    }

    #[test]
    fn utc_time_arithmetic() {
        let d = CivilDate::new(2022, 1, 1).unwrap();
        let t0 = UtcTime::from_date(d);
        let t1 = t0 + Duration::from_secs(300);
        assert_eq!((t1 - t0).as_secs(), 300);
        assert_eq!(t1.iso8601(), "2022-01-01T00:05:00Z");
        // Crossing midnight
        let t2 = t0 + Duration::from_secs(86_400 + 60);
        assert_eq!(t2.date(), CivilDate::new(2022, 1, 2).unwrap());
    }

    #[test]
    fn display_date() {
        assert_eq!(
            CivilDate::new(2003, 7, 14).unwrap().to_string(),
            "2003-07-14"
        );
    }
}
