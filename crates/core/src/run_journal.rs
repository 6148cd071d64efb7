//! The run journal: what a pipeline driver remembers.
//!
//! Every hand-off of the five-stage workflow is a durable fact ("file
//! downloaded", "tile file written", "trigger seen", "labels appended",
//! "shipped"). A driver states each one as a [`JournalEvent`] and hands it to
//! its [`RunJournal`], which alone decides what happens next: the event is
//! appended, or — on replay — found already done, or — once an append has
//! been refused — refused like everything after it. The drivers keep only
//! their replay *partitions* (which work to skip), read from
//! [`RunJournal::resume`].

use eoml_journal::{CampaignState, Journal, JournalError, JournalEvent, Storage};
use eoml_transfer::manifest::JournalDigest;
use eoml_transfer::sync::JournalSync;

/// Object-safe journal handle the run journal appends through; lets the
/// drivers stay non-generic over the journal's [`Storage`] backend.
pub(crate) trait JournalSink {
    /// Append one event durably.
    fn append(&mut self, event: JournalEvent) -> Result<(), JournalError>;

    /// The journal's materialised state.
    fn state(&self) -> &CampaignState;

    /// The journal's `(events, checksum)` state digest.
    fn state_digest(&self) -> (u64, u64);
}

impl<S: Storage> JournalSink for Journal<S> {
    fn append(&mut self, event: JournalEvent) -> Result<(), JournalError> {
        Journal::append(self, event)
    }

    fn state(&self) -> &CampaignState {
        Journal::state(self)
    }

    fn state_digest(&self) -> (u64, u64) {
        Journal::state_digest(self)
    }
}

/// A borrowed journal is a sink too: the real driver's caller keeps its
/// journal, the simulated drivers own theirs.
impl<J: JournalSink + ?Sized> JournalSink for &mut J {
    fn append(&mut self, event: JournalEvent) -> Result<(), JournalError> {
        (**self).append(event)
    }

    fn state(&self) -> &CampaignState {
        (**self).state()
    }

    fn state_digest(&self) -> (u64, u64) {
        (**self).state_digest()
    }
}

/// One run's journal: the sink (none for a plain in-memory run), the state
/// the run resumed from, and the error of the first refused append.
#[derive(Default)]
pub(crate) struct RunJournal<'j> {
    sink: Option<Box<dyn JournalSink + 'j>>,
    resume: CampaignState,
    /// Boxed: set at most once, on the failure path. Inline it grows the
    /// simulated drivers' shared state by 24 bytes, and the heap shift
    /// that follows is measurable on `sim_campaign_16d` (EXPERIMENTS "One
    /// run journal").
    refused: Option<Box<JournalError>>,
}

impl<'j> RunJournal<'j> {
    /// The journal of a run that keeps none: every event is accepted and
    /// dropped, nothing is ever covered or refused.
    pub(crate) fn unjournaled() -> Self {
        Self::default()
    }

    /// Claim `journal` for the driver that labels its runs `label`: a fresh
    /// journal gets the `CampaignStarted { seed, label }` record; one already
    /// started must carry the same seed and label, so no driver continues
    /// another driver's (or another seed's) run. Nothing is appended on
    /// refusal. The run resumes from the state as it was before the claim.
    pub(crate) fn claim(
        mut journal: impl JournalSink + 'j,
        seed: u64,
        label: &str,
    ) -> Result<Self, JournalError> {
        let resume = journal.state().clone();
        if let Some(theirs) = resume.seed.filter(|&theirs| theirs != seed) {
            return Err(JournalError::Io(format!(
                "journal belongs to seed {theirs}, this run uses seed {seed}"
            )));
        }
        if let Some(theirs) = resume.label.as_deref().filter(|&theirs| theirs != label) {
            return Err(JournalError::Io(format!(
                "journal belongs to a {theirs:?} run, not a {label:?} run"
            )));
        }
        if resume.seed.is_none() {
            journal.append(JournalEvent::CampaignStarted {
                seed,
                label: label.into(),
            })?;
        }
        Ok(Self {
            sink: Some(Box::new(journal)),
            resume,
            refused: None,
        })
    }

    /// Whether events reach a journal at all.
    pub(crate) fn is_journaled(&self) -> bool {
        self.sink.is_some()
    }

    /// The state this run resumed from — what the drivers partition their
    /// replayed work by.
    pub(crate) fn resume(&self) -> &CampaignState {
        &self.resume
    }

    /// `Err` with the first refused append's error once the run has halted:
    /// that event, and everything after it, is not durable. A simulated
    /// driver stops its clock on it; every driver returns it.
    pub(crate) fn check(&self) -> Result<(), JournalError> {
        match &self.refused {
            None => Ok(()),
            Some(e) => Err((**e).clone()),
        }
    }

    /// Append the event `event` builds. A completion must be durable before
    /// the driver acts on it, so on `Err` the caller abandons the step in
    /// progress. An unjournaled run never builds the event.
    pub(crate) fn record(
        &mut self,
        event: impl FnOnce() -> JournalEvent,
    ) -> Result<(), JournalError> {
        self.check()?;
        let Some(sink) = &mut self.sink else {
            return Ok(());
        };
        if let Err(e) = sink.append(event()) {
            self.refused = Some(Box::new(e.clone()));
            return Err(e);
        }
        Ok(())
    }

    /// [`record`](Self::record) unless the state this run resumed from
    /// already [covers](CampaignState::covers) the event.
    pub(crate) fn once(
        &mut self,
        event: impl FnOnce() -> JournalEvent,
    ) -> Result<(), JournalError> {
        if !self.is_journaled() {
            return self.check();
        }
        let event = event();
        if self.resume.covers(&event) {
            return self.check();
        }
        self.record(|| event)
    }

    /// The journal's digest for the shipment manifest, if journaled.
    pub(crate) fn digest(&self) -> Option<JournalDigest> {
        let (events, checksum) = self.sink.as_ref()?.state_digest();
        Some(JournalDigest { events, checksum })
    }

    /// The journal-sync payload that travels with the shipment: the digest
    /// plus the full materialised state. `None` for unjournaled runs.
    pub(crate) fn sync(&self) -> Option<JournalSync> {
        let JournalDigest { events, checksum } = self.digest()?;
        let state = self.sink.as_ref()?.state().to_json();
        Some(JournalSync::from_parts(events, checksum, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign_resumable, CampaignParams};
    use crate::realrun::{RealPipeline, RealRunError};
    use crate::streaming::{run_streaming_campaign_resumable, StreamingError, StreamingParams};
    use eoml_journal::MemStorage;
    use eoml_modis::granule::GranuleId;
    use eoml_modis::synth::{SwathDims, SwathSynthesizer};

    /// Counts the appends that reach it; from the `refuse_at`-th on (1-based)
    /// they fail the way a full disk does.
    struct CountingSink {
        state: CampaignState,
        appends: usize,
        refuse_at: usize,
    }

    impl CountingSink {
        fn resuming(events: &[JournalEvent], refuse_at: usize) -> Self {
            let mut state = CampaignState::default();
            events.iter().for_each(|ev| state.apply(ev));
            Self {
                state,
                appends: 0,
                refuse_at,
            }
        }
    }

    impl JournalSink for CountingSink {
        fn append(&mut self, event: JournalEvent) -> Result<(), JournalError> {
            self.appends += 1;
            if self.appends >= self.refuse_at {
                return Err(JournalError::Io("disk full".into()));
            }
            self.state.apply(&event);
            Ok(())
        }

        fn state(&self) -> &CampaignState {
            &self.state
        }

        fn state_digest(&self) -> (u64, u64) {
            (self.state.events_applied, self.state.work_checksum())
        }
    }

    fn work_events() -> Vec<JournalEvent> {
        let file = || "tiles-a.nc".to_string();
        vec![
            JournalEvent::stage_started("download"),
            JournalEvent::FileDownloaded {
                file: "a.eogr".into(),
                bytes: 9,
            },
            JournalEvent::stage_finished("download"),
            JournalEvent::TileFileWritten {
                file: file(),
                tiles: 4,
            },
            JournalEvent::MonitorTriggered { file: file() },
            JournalEvent::LabelsAppended {
                file: file(),
                labels: 4,
                bytes: 64,
            },
            JournalEvent::ShipmentFinished {
                files: 1,
                bytes: 64,
            },
        ]
    }

    #[test]
    fn after_the_first_refusal_nothing_reaches_the_sink_and_its_error_is_kept() {
        let events = work_events();
        // Resumes with the first two events done; the claim is append 1.
        let mut sink = CountingSink::resuming(&events[..2], 3);
        let mut journal = RunJournal::claim(&mut sink, 7, "test").unwrap();
        assert_eq!(journal.record(|| events[2].clone()), Ok(()));
        assert_eq!(journal.check(), Ok(()));
        let refused = Err(JournalError::Io("disk full".into()));
        assert_eq!(journal.once(|| events[3].clone()), refused);
        for ev in &events {
            // Covered or not, appended before or not: all refused alike.
            assert_eq!(journal.record(|| ev.clone()), refused);
            assert_eq!(journal.once(|| ev.clone()), refused);
        }
        assert_eq!(journal.check(), refused);
        drop(journal);
        assert_eq!(sink.appends, 3, "claim, one record, the refused append");
    }

    #[test]
    fn once_skips_what_the_resume_state_covers_and_record_never_does() {
        let events = work_events();
        let claimed = JournalEvent::CampaignStarted {
            seed: 7,
            label: "test".into(),
        };
        let mut done = vec![claimed];
        done.extend_from_slice(&events[..4]);
        let mut sink = CountingSink::resuming(&done, usize::MAX);
        let mut journal = RunJournal::claim(&mut sink, 7, "test").unwrap();
        for ev in &events[..4] {
            assert_eq!(journal.once(|| ev.clone()), Ok(()));
        }
        assert_eq!(journal.digest().map(|d| d.events), Some(5), "none appended");
        for ev in &events[4..] {
            assert_eq!(journal.once(|| ev.clone()), Ok(()));
        }
        assert_eq!(journal.record(|| events[0].clone()), Ok(()));
        let sync = journal.sync().expect("journaled");
        assert_eq!(Some(sync.digest), journal.digest());
        assert_eq!(sync.state().unwrap().shipped, Some((1, 64)));
        drop(journal);
        assert_eq!(sink.appends, 3 + 1, "the uncovered three, then the record");
    }

    #[test]
    fn an_unjournaled_run_never_halts() {
        let mut journal = RunJournal::unjournaled();
        for ev in work_events().into_iter().cycle().take(50) {
            assert_eq!(journal.record(|| ev.clone()), Ok(()));
            assert_eq!(journal.once(|| ev), Ok(()));
        }
        // Nor does it build the events it is handed.
        assert_eq!(
            journal.record(|| unreachable!("an event was built")),
            Ok(())
        );
        assert_eq!(journal.once(|| unreachable!("an event was built")), Ok(()));
        assert_eq!(journal.check(), Ok(()));
        assert!(!journal.is_journaled());
        assert!(journal.digest().is_none() && journal.sync().is_none());
        assert_eq!(journal.resume(), &CampaignState::default());
    }

    /// `MemStorage` whose `fail_at`-th append (1-based) finds the disk full.
    struct FullDisk {
        disk: MemStorage,
        appends: usize,
        fail_at: usize,
    }

    impl Storage for FullDisk {
        fn read_all(&mut self) -> Result<Vec<u8>, String> {
            self.disk.read_all()
        }

        fn append(&mut self, bytes: &[u8]) -> Result<(), String> {
            self.appends += 1;
            if self.appends == self.fail_at {
                return Err("disk full".into());
            }
            self.disk.append(bytes)
        }

        fn truncate(&mut self, len: u64) -> Result<(), String> {
            self.disk.truncate(len)
        }
    }

    /// The three resumable drivers behind one signature: run the driver that
    /// labels its journals `driver` over `journal`; `Ok` is a summary of the
    /// work the report claims.
    struct Drivers {
        params: CampaignParams,
        pipeline: RealPipeline,
        granules: Vec<GranuleId>,
        dir: std::path::PathBuf,
    }

    const DRIVERS: [&str; 3] = ["batch-campaign", "streaming-campaign", "real-run"];

    impl Drivers {
        fn new(tag: &str) -> Self {
            let params = CampaignParams::small();
            let dir = std::env::temp_dir().join(format!("eoml-runj-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let pipeline = RealPipeline::new(&dir, params.seed, SwathDims::small(), 32, 1)
                .unwrap()
                .with_thresholds(0.0, 0.0);
            let synth = SwathSynthesizer::new(params.seed, SwathDims::small());
            let granules = GranuleId::day_granules(params.platform, params.start)
                .filter(|&g| synth.synthesize(g).day)
                .take(1)
                .collect();
            Self {
                params,
                pipeline,
                granules,
                dir,
            }
        }

        fn run<S: Storage + 'static>(
            &self,
            driver: &str,
            mut journal: Journal<S>,
        ) -> Result<String, JournalError> {
            match driver {
                "batch-campaign" => run_campaign_resumable(self.params.clone(), journal).map(|r| {
                    let manifest = r.manifest.expect("manifest");
                    let work = (r.granules, r.tile_files, r.labeled_files, r.shipment.bytes);
                    format!("{work:?} {} {:?}", manifest.id(), manifest.journal)
                }),
                "streaming-campaign" => {
                    let params = StreamingParams {
                        base: self.params.clone(),
                        ..StreamingParams::demo()
                    };
                    match run_streaming_campaign_resumable(params, journal) {
                        Ok(r) => {
                            let manifest = r.manifest.expect("manifest");
                            let work = (r.granules_preprocessed, r.labeled_files, r.shipped);
                            Ok(format!("{work:?} {} {:?}", manifest.id(), manifest.journal))
                        }
                        Err(StreamingError::Journal(e)) => Err(e),
                        Err(other) => panic!("{other}"),
                    }
                }
                "real-run" => match self.pipeline.run_resumable(&self.granules, &mut journal) {
                    Ok(r) => {
                        let manifest = r.manifest.expect("manifest");
                        let work = (r.tile_files, r.labeled_tiles, r.label_histogram);
                        Ok(format!("{work:?} {} {:?}", manifest.id(), manifest.journal))
                    }
                    Err(e) => {
                        let is_crash = e.is_crash();
                        let RealRunError::Journal(e) = e else {
                            panic!("{e}")
                        };
                        assert_eq!(is_crash, e == JournalError::Crashed);
                        Err(e)
                    }
                },
                _ => unreachable!(),
            }
        }
    }

    impl Drop for Drivers {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn a_storage_failure_comes_back_as_io_and_only_the_kill_point_as_crashed() {
        let drivers = Drivers::new("diskfull");
        for driver in DRIVERS {
            let disk = FullDisk {
                disk: MemStorage::new(),
                appends: 0,
                fail_at: 6,
            };
            let (journal, _) = Journal::open(disk).unwrap();
            let err = drivers.run(driver, journal).unwrap_err();
            assert_eq!(err, JournalError::Io("disk full".into()), "{driver}");

            let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
            journal.crash_after(5);
            let err = drivers.run(driver, journal).unwrap_err();
            assert_eq!(err, JournalError::Crashed, "{driver}");
        }
    }

    #[test]
    fn rerunning_a_finished_journal_appends_nothing() {
        let drivers = Drivers::new("rerun");
        for driver in DRIVERS {
            let store = MemStorage::new();
            let (journal, _) = Journal::open(store.clone()).unwrap();
            let first = drivers.run(driver, journal).unwrap();
            let (finished, _) = Journal::open(store.clone()).unwrap();
            let frames = finished.len();
            for rerun in 1..=2 {
                let (journal, _) = Journal::open(store.clone()).unwrap();
                let again = drivers.run(driver, journal).unwrap();
                assert_eq!(again, first, "{driver}: rerun {rerun} reports other work");
                let (journal, _) = Journal::open(store.clone()).unwrap();
                assert_eq!(journal.len(), frames, "{driver}: rerun {rerun} appended");
            }
        }
    }
}
