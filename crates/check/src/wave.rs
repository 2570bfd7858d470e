//! Running one wave of schedules, `jobs` at a time, without replaying the
//! prefixes they share.
//!
//! A wave is cut into contiguous chunks; workers claim chunks off a shared
//! counter, and each chunk is one walk that starts from a single fresh
//! engine. The walk runs the chunk's schedules in wave order. A DFS
//! schedule shares its first branch points with the one before it (wave
//! order is trie order), so it *resumes*: from a fork of that run's engine,
//! paused just before the event that holds the first branch point the two
//! do not share ([`Resume`]). While a run passes such an event for a later
//! schedule of the chunk, the walk forks it there and keeps the copy on a
//! stack of snapshots, at most one per branch depth; a snapshot's last
//! user takes it by move. Random and PCT schedules share nothing, so each
//! starts from a copy of the chunk's engine at tick 0.
//!
//! A resumed run is exact: [`Engine::fork`] copies everything, the paused
//! run is where an unpaused one would be, and [`Recorder::follow`] leaves
//! the recorder as a run of the new plan from tick 0 would have it. A
//! resume point that a run fails to reach, or a recorder that cannot
//! follow, is a bug and panics rather than falling back to a run from
//! tick 0. Every run ends in [`finish`], the one judge of every run, so
//! each verdict is the one a fresh run would give, field for field,
//! whatever the chunking — and so at any `jobs`.

use std::collections::BTreeMap;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

use manet_sim::{Engine, SimTime};

use crate::certify::SearchWork;
use crate::spec::CheckSpec;
use crate::strategy::{ChoicePoint, DeliveryRecord, Plan, Recorder, RecorderMode};
use crate::verdict::{finish, with_engine, Checkable, Job, PropertyViolation, RunVerdict};

/// Chunks per worker: enough for work stealing to even out uneven
/// chunks, few enough that fresh starts stay rare.
const CHUNKS_PER_JOB: usize = 4;

/// Where a schedule resumes from the run of the schedule before it: just
/// before event `event`, which holds branch point `depth` and none before
/// it, once `depth` branch points have been chosen as both choose them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Resume {
    depth: u32,
    event: u32,
}

/// One schedule of a wave, and where it may resume from the run of the
/// schedule queued before it.
#[derive(Clone, Debug)]
pub(crate) struct Sched {
    pub plan: Plan,
    resume: Option<Resume>,
}

impl Sched {
    /// A schedule run from tick 0.
    pub fn fresh(plan: Plan) -> Sched {
        Sched { plan, resume: None }
    }

    /// The DFS child of a run with `choices` that flips its branch point
    /// `i` to the latest delay, queued after `prev`. It resumes from
    /// `prev`'s run before the first branch point the two do not share, or
    /// at the latest before `i`: a record made past it would need a digest
    /// the earlier run may not have taken. The event comes from `choices`,
    /// which made the same choices up to there, and the depth moves back to
    /// the first branch point of that event.
    pub fn child(choices: &[ChoicePoint], i: usize, dedup: bool, prev: Option<&Sched>) -> Sched {
        let mut prefix = Vec::with_capacity(i + 1);
        prefix.extend(choices[..i].iter().map(|c| c.index));
        prefix.push(1);
        let resume = prev.map(|prev| {
            let Plan::Dfs { prefix: before, .. } = &prev.plan else {
                unreachable!("a DFS frontier holds only DFS plans");
            };
            let split = (0..i)
                .find(|&p| before.get(p).map_or(0, |&b| b.min(1)) != prefix[p])
                .unwrap_or(i);
            let event = choices[split].event;
            let depth = (0..split)
                .rev()
                .take_while(|&p| choices[p].event == event)
                .last()
                .unwrap_or(split);
            Resume {
                depth: u32::try_from(depth).expect("fewer branch points than events"),
                event,
            }
        });
        Sched {
            plan: Plan::Dfs { prefix, dedup },
            resume,
        }
    }

    /// Length of the DFS prefix (0 for any other plan).
    pub fn prefix_len(&self) -> usize {
        match &self.plan {
            Plan::Dfs { prefix, .. } => prefix.len(),
            _ => 0,
        }
    }
}

/// What a wave's merge reads of one run. The worker that ran the schedule
/// reduces its [`RunVerdict`] to this, so a wave never holds a trace.
pub(crate) struct WaveRun {
    pub choices: Vec<ChoicePoint>,
    pub violation: Option<PropertyViolation>,
    pub drained: bool,
    pub first_eat: Vec<Option<u64>>,
    /// The full delivery log, kept only for a DPOR merge (empty otherwise).
    pub deliveries: Vec<DeliveryRecord>,
    pub work: SearchWork,
}

impl WaveRun {
    fn of(verdict: RunVerdict, keep_deliveries: bool, work: SearchWork) -> WaveRun {
        WaveRun {
            choices: verdict.choices,
            violation: verdict.violation,
            drained: verdict.drained,
            first_eat: verdict.first_eat,
            deliveries: if keep_deliveries {
                verdict.deliveries
            } else {
                Vec::new()
            },
            work,
        }
    }
}

/// Run a wave of schedules, `jobs` at a time, in contiguous chunks that
/// workers claim off a shared counter, and hand each run to `merge` in
/// wave order as soon as it and every run before it are done, so a wave
/// holds only the runs that finished ahead of their turn. Once `merge`
/// breaks, it sees no further run and no further chunk starts.
pub(crate) fn run_wave(
    spec: &CheckSpec,
    wave: &[Sched],
    rmode: RecorderMode,
    jobs: usize,
    keep_deliveries: bool,
    merge: &mut dyn FnMut(&Sched, WaveRun) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let chunks = chunks(wave.len(), jobs);
    let walk = |range: &Range<usize>, sink: &mut dyn FnMut(WaveRun) -> ControlFlow<()>| {
        walk(spec, &wave[range.clone()], rmode, &mut |verdict, work| {
            sink(WaveRun::of(verdict, keep_deliveries, work))
        })
    };
    if jobs <= 1 || chunks.len() <= 1 {
        let mut scheds = wave.iter();
        for range in &chunks {
            walk(range, &mut |run| {
                merge(scheds.next().expect("one run per schedule"), run)
            })?;
        }
        return ControlFlow::Continue(());
    }
    let (next, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
    let (done, finished) = mpsc::channel::<(usize, Vec<WaveRun>)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(chunks.len()) {
            let done = done.clone();
            let (next, stop, chunks, walk) = (&next, &stop, &chunks, &walk);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(range) = chunks.get(i) else {
                        break;
                    };
                    let mut runs = Vec::with_capacity(range.len());
                    let _ = walk(range, &mut |run| {
                        runs.push(run);
                        ControlFlow::Continue(())
                    });
                    if done.send((i, runs)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done);
        let mut early: BTreeMap<usize, Vec<WaveRun>> = BTreeMap::new();
        let mut turn = 0;
        let mut flow = ControlFlow::Continue(());
        for (i, runs) in finished {
            early.insert(i, runs);
            while let Some(runs) = early.remove(&turn) {
                for (sched, run) in wave[chunks[turn].clone()].iter().zip(runs) {
                    if flow.is_continue() {
                        flow = merge(sched, run);
                    }
                }
                stop.store(flow.is_break(), Ordering::Relaxed);
                turn += 1;
            }
        }
        flow
    })
}

/// `len` schedules in one chunk per `jobs ≤ 1`, else in up to
/// [`CHUNKS_PER_JOB`] per worker, as even as integer division makes them.
fn chunks(len: usize, jobs: usize) -> Vec<Range<usize>> {
    let count = if jobs <= 1 {
        1
    } else {
        (jobs * CHUNKS_PER_JOB).min(len)
    };
    if len == 0 {
        return Vec::new();
    }
    (0..count)
        .map(|i| i * len / count..(i + 1) * len / count)
        .collect()
}

/// Walk `scheds` as one chunk (see the module docs), from one fresh engine
/// of `spec`, and hand each run's verdict and the work behind it to `sink`
/// in order, while it says to go on.
pub(crate) fn walk(
    spec: &CheckSpec,
    scheds: &[Sched],
    rmode: RecorderMode,
    sink: &mut dyn FnMut(RunVerdict, SearchWork) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let job = Walk { spec, scheds, sink };
    with_engine(spec, &scheds[0].plan, rmode, job)
}

/// How a chunk's schedules start: from a copy of the chunk's engine at
/// tick 0, or from snapshot `id`.
#[derive(Clone, Copy)]
enum Start {
    Fresh,
    Snapshot(usize),
}

/// A snapshot `id` to fork off a run at `at`.
#[derive(Clone, Copy)]
struct Take {
    at: Resume,
    id: usize,
}

/// Which snapshot each schedule of a chunk starts from, which snapshots
/// each run takes on its way, and how many schedules use each.
struct Route {
    start: Vec<Start>,
    takes: Vec<Vec<Take>>,
    users: Vec<usize>,
}

impl Route {
    /// Walk the chunk's resume points with a stack of the snapshots along
    /// the current path, shallowest first. A schedule pops the snapshots
    /// deeper than its resume point; it reuses the one left on top if that
    /// is its own, and otherwise asks for a new one from the run that
    /// passed the event: the last to start from the snapshot below it.
    fn of(scheds: &[Sched]) -> Route {
        struct Entry {
            at: Resume,
            id: usize,
            last_starter: usize,
        }
        let mut route = Route {
            start: Vec::with_capacity(scheds.len()),
            takes: vec![Vec::new(); scheds.len()],
            users: Vec::new(),
        };
        let mut stack: Vec<Entry> = Vec::new();
        let mut fresh_starter = 0;
        for (k, s) in scheds.iter().enumerate() {
            let Some(at) = s.resume.filter(|_| k > 0) else {
                route.start.push(Start::Fresh);
                stack.clear();
                fresh_starter = k;
                continue;
            };
            while stack
                .last()
                .is_some_and(|e| e.at.depth > at.depth || (e.at.depth == at.depth && e.at != at))
            {
                stack.pop();
            }
            match stack.last_mut() {
                Some(top) if top.at == at => {
                    route.users[top.id] += 1;
                    top.last_starter = k;
                    route.start.push(Start::Snapshot(top.id));
                }
                below => {
                    let taker = below.map_or(fresh_starter, |e| e.last_starter);
                    let id = route.users.len();
                    route.users.push(1);
                    route.takes[taker].push(Take { at, id });
                    stack.push(Entry {
                        at,
                        id,
                        last_starter: k,
                    });
                    route.start.push(Start::Snapshot(id));
                }
            }
        }
        for takes in &mut route.takes {
            takes.sort_by_key(|t| t.at.event);
        }
        route
    }
}

/// The walk of one chunk (see the module docs).
struct Walk<'a> {
    spec: &'a CheckSpec,
    scheds: &'a [Sched],
    sink: &'a mut dyn FnMut(RunVerdict, SearchWork) -> ControlFlow<()>,
}

impl Job for Walk<'_> {
    type Out = ControlFlow<()>;

    fn run<P: Checkable>(self, template: Engine<P>) -> ControlFlow<()> {
        let horizon = SimTime(self.spec.horizon);
        let Route {
            start,
            takes,
            mut users,
        } = Route::of(self.scheds);
        let mut stack: Vec<(usize, Engine<P>)> = Vec::new();
        for (k, sched) in self.scheds.iter().enumerate() {
            let mut engine = match start[k] {
                Start::Fresh => template.fork(),
                Start::Snapshot(id) => {
                    users[id] -= 1;
                    let i = stack
                        .iter()
                        .position(|(s, _)| *s == id)
                        .expect("a snapshot is taken before its first user starts");
                    match users[id] {
                        0 => stack.remove(i).1,
                        _ => stack[i].1.fork(),
                    }
                }
            };
            recorder(&mut engine).follow(&sched.plan);
            let from = engine.stats().events;
            for take in &takes[k] {
                let event = u64::from(take.at.event);
                if engine.stats().events != event {
                    engine.pause_before(event);
                    engine.run_until(horizon);
                }
                assert!(
                    engine.stats().events == event
                        && recorder(&mut engine).log().len() == take.at.depth as usize,
                    "schedule {k} missed its snapshot before event {event}"
                );
                stack.push((take.id, engine.fork()));
            }
            engine.run_until(horizon);
            let events = engine.stats().events;
            let work = SearchWork {
                dispatched: events - from,
                from_scratch: events,
            };
            (self.sink)(finish(self.spec, engine), work)?;
        }
        ControlFlow::Continue(())
    }
}

fn recorder<P: Checkable>(engine: &mut Engine<P>) -> &mut Recorder {
    engine
        .strategy_mut::<Recorder>()
        .expect("every checker run records")
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use harness::AlgKind;
    use manet_sim::ArqConfig;

    use super::*;
    use crate::verdict::run_schedule_mode;

    fn line3(alg: AlgKind) -> CheckSpec {
        CheckSpec::new(alg, "line:3", 3, vec![(0, 1), (1, 2)])
    }

    /// Every schedule of the first three DFS waves, walked as one chunk,
    /// gets the verdict a run from tick 0 gets, field for field: choices
    /// with their digests and events, deliveries, trace, first-eat times,
    /// drained flag and violation. The waves are generated as the merges
    /// generate them (digest dedup included), in the explorer's recorder
    /// mode and in certify's.
    #[test]
    fn walked_runs_equal_runs_from_tick_0() {
        let mut specs: Vec<CheckSpec> = AlgKind::extended().into_iter().map(line3).collect();
        let mut arq = line3(AlgKind::A2);
        arq.arq = Some(ArqConfig::default());
        specs.push(arq);
        let mut live = line3(AlgKind::A2);
        live.liveness = true;
        live.horizon = 200;
        specs.push(live);
        let certify_mode = RecorderMode {
            digest: None,
            branch_all: true,
        };
        for spec in &specs {
            for rmode in [RecorderMode::default(), certify_mode] {
                let mut wave = vec![Sched::fresh(Plan::Dfs {
                    prefix: Vec::new(),
                    dedup: true,
                })];
                let mut seen = HashSet::new();
                let mut resumed = 0;
                for _ in 0..3 {
                    let mut next: Vec<Sched> = Vec::new();
                    let mut scheds = wave.iter();
                    let _ = walk(spec, &wave, rmode, &mut |walked, work| {
                        let sched = scheds.next().expect("one verdict per schedule");
                        let fresh = run_schedule_mode(spec, &sched.plan, rmode);
                        let what = format!("{:?} {rmode:?} {:?}", spec.alg, sched.plan);
                        assert_eq!(walked, fresh, "{what}");
                        // `ChoicePoint` equality leaves the event out.
                        let events = |v: &RunVerdict| v.choices.iter().map(|c| c.event).collect();
                        let (a, b): (Vec<u32>, Vec<u32>) = (events(&walked), events(&fresh));
                        assert_eq!(a, b, "{what}");
                        resumed += usize::from(work.dispatched < work.from_scratch);
                        for i in sched.prefix_len()..walked.choices.len() {
                            if walked.choices[i].digest.is_none_or(|d| seen.insert(d)) {
                                let child = Sched::child(&walked.choices, i, true, next.last());
                                next.push(child);
                            }
                        }
                        ControlFlow::Continue(())
                    });
                    wave = next;
                }
                assert!(resumed > 0, "{:?}: no schedule resumed", spec.alg);
            }
        }
    }
}
