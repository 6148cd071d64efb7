//! Monitor & trigger: the file-system crawler of workflow stage 3.
//!
//! "A monitoring script scans whether preprocessed files are generated and
//! stored in \[the\] file system. If yes, triggers the inference script." The
//! crawler polls a directory, reports each matching file exactly once, and
//! the caller starts one flow run per reported file.

use std::collections::HashSet;
use std::path::PathBuf;

/// A stateful directory crawler: each `crawl` returns matching files never
/// reported before (by path), in sorted order for determinism.
#[derive(Debug)]
pub struct DirectoryCrawler {
    root: PathBuf,
    /// Required file-name suffix (e.g. `".nc"`).
    suffix: String,
    seen: HashSet<PathBuf>,
}

impl DirectoryCrawler {
    /// Watch `root` for files ending in `suffix`.
    pub fn new(root: impl Into<PathBuf>, suffix: impl Into<String>) -> Self {
        Self {
            root: root.into(),
            suffix: suffix.into(),
            seen: HashSet::new(),
        }
    }

    /// Scan the directory (non-recursive) and return newly appeared files.
    /// A missing directory yields an empty result (the preprocess stage may
    /// not have created it yet — not an error while monitoring).
    pub fn crawl(&mut self) -> std::io::Result<Vec<PathBuf>> {
        let mut fresh = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(fresh),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n,
                None => continue,
            };
            // Skip in-progress files by convention (writers rename on
            // completion) — mirrors the paper's care around partially
            // written HDF files.
            if name.ends_with(".part") || name.starts_with('.') {
                continue;
            }
            if name.ends_with(&self.suffix) && !self.seen.contains(&path) {
                self.seen.insert(path.clone());
                fresh.push(path);
            }
        }
        fresh.sort();
        Ok(fresh)
    }
}

/// In-memory variant used by the virtual-time workflow: paths are announced
/// by the preprocessing model rather than discovered on a real disk.
#[derive(Debug, Default)]
pub struct VirtualCrawler {
    pending: Vec<String>,
    seen: HashSet<String>,
}

impl VirtualCrawler {
    /// Empty crawler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Announce that a file now exists.
    pub fn announce(&mut self, path: impl Into<String>) {
        let path = path.into();
        if !self.seen.contains(&path) {
            self.pending.push(path);
        }
    }

    /// Take all announced-but-unreported files.
    pub fn crawl(&mut self) -> Vec<String> {
        let mut out: Vec<String> = self
            .pending
            .drain(..)
            .filter(|p| self.seen.insert(p.clone()))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eoml-crawler-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn reports_new_files_exactly_once() {
        let dir = tempdir("once");
        let mut c = DirectoryCrawler::new(&dir, ".nc");
        assert!(c.crawl().unwrap().is_empty());
        fs::write(dir.join("a.nc"), b"x").unwrap();
        fs::write(dir.join("b.nc"), b"x").unwrap();
        let first = c.crawl().unwrap();
        assert_eq!(first.len(), 2);
        assert!(c.crawl().unwrap().is_empty(), "no re-reporting");
        fs::write(dir.join("c.nc"), b"x").unwrap();
        let second = c.crawl().unwrap();
        assert_eq!(second.len(), 1);
        assert!(second[0].ends_with("c.nc"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suffix_filter_applies() {
        let dir = tempdir("suffix");
        fs::write(dir.join("tiles.nc"), b"x").unwrap();
        fs::write(dir.join("raw.eogr"), b"x").unwrap();
        fs::write(dir.join("notes.txt"), b"x").unwrap();
        let mut c = DirectoryCrawler::new(&dir, ".nc");
        let found = c.crawl().unwrap();
        assert_eq!(found.len(), 1);
        assert!(found[0].ends_with("tiles.nc"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_files_are_skipped() {
        let dir = tempdir("partial");
        fs::write(dir.join("t.nc.part"), b"x").unwrap();
        fs::write(dir.join(".hidden.nc"), b"x").unwrap();
        let mut c = DirectoryCrawler::new(&dir, ".nc");
        assert!(c.crawl().unwrap().is_empty());
        // Writer completes the file by renaming.
        fs::rename(dir.join("t.nc.part"), dir.join("t.nc")).unwrap();
        assert_eq!(c.crawl().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_empty_not_error() {
        let mut c = DirectoryCrawler::new("/definitely/not/a/real/dir", ".nc");
        assert!(c.crawl().unwrap().is_empty());
    }

    #[test]
    fn results_are_sorted() {
        let dir = tempdir("sorted");
        for name in ["c.nc", "a.nc", "b.nc"] {
            fs::write(dir.join(name), b"x").unwrap();
        }
        let mut c = DirectoryCrawler::new(&dir, ".nc");
        let found = c.crawl().unwrap();
        let names: Vec<_> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["a.nc", "b.nc", "c.nc"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn virtual_crawler_semantics_match() {
        let mut c = VirtualCrawler::new();
        c.announce("b.nc");
        c.announce("a.nc");
        c.announce("a.nc"); // duplicate announcement
        assert_eq!(c.crawl(), vec!["a.nc".to_string(), "b.nc".to_string()]);
        assert!(c.crawl().is_empty());
        c.announce("a.nc"); // already seen
        assert!(c.crawl().is_empty());
        c.announce("c.nc");
        assert_eq!(c.crawl(), vec!["c.nc".to_string()]);
    }
}
