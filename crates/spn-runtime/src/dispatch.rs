//! The control-thread protocol of §IV-B with no I/O: which worker
//! claims which block, who parks, is lent or woken, and when a job
//! retires. [`Dispatch`] has one method per event, each returning what
//! its caller must do, so two callers drive it: the
//! [`crate::scheduler::Scheduler`] on the wall clock and [`crate::perf`]
//! in virtual time. Worker `w` drives PE `w % num_pes`; blocks are
//! claimed round-robin across jobs, in order within one. A retired job
//! leaves the state.

use crate::runtime::RuntimeError;

/// Where a control thread is: running a block or about to claim one;
/// asleep with no wake coming (parked) or with one coming (woken); or
/// lent — asleep while a submitter runs a block in its stead, to be
/// woken by no one but that submitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(test, derive(Hash))]
pub(crate) enum Park {
    Awake,
    Parked,
    Woken,
    Lent,
}

/// What an admitted submitter does: publish the job (it has no block),
/// notify these workers, or run block 0 itself for lent worker `w` and
/// report it done with `Some(w)`.
pub(crate) enum Admitted {
    Empty,
    Wake(Vec<usize>),
    StandIn(usize),
}

/// What a free worker does next: run (job, block), sleep until
/// notified and claim again, or exit.
pub(crate) enum Claim<J> {
    Run(J, usize),
    Park,
    Exit,
}

/// How a claimed block or a retiring job ends. A block is `Cancelled`
/// when it gave up because its job stopped meanwhile.
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(crate) enum Ended<E> {
    Done,
    Failed(E),
    Cancelled,
}

/// What [`Dispatch::block_done`] leaves to do: count the block (it ran,
/// its job live), publish the job, notify the lent worker given back.
pub(crate) struct Finished<E> {
    pub(crate) counted: bool,
    pub(crate) end: Option<Ended<E>>,
    pub(crate) wake: bool,
}

#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
struct Slot<J> {
    id: u64,
    job: J,
    blocks: usize,
    /// The job runs on PEs `0..pe_limit`.
    pe_limit: u32,
    /// Next unclaimed block.
    next: usize,
    in_flight: usize,
    done: usize,
    /// Cancelled or failed: claims skip it.
    cancelled: bool,
}

impl<J> Slot<J> {
    fn claimable_by(&self, pe: u32) -> bool {
        !self.cancelled && pe < self.pe_limit && self.next < self.blocks
    }
}

/// The protocol's state; `J` is what its caller knows a job by.
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(crate) struct Dispatch<J> {
    /// Queued, not yet terminal jobs, in submission (= id) order.
    jobs: Vec<Slot<J>>,
    /// Round-robin cursor for cross-job fairness.
    rr: usize,
    last_id: u64,
    pub(crate) park: Vec<Park>,
    num_pes: u32,
    capacity: usize,
    draining: bool,
    shutdown: bool,
    /// For tests: idle wakes, notifications asked, stand-in blocks.
    pub(crate) idle_wakes: u64,
    pub(crate) wakes_issued: u64,
    pub(crate) inline_blocks: u64,
}

impl<J: Clone> Dispatch<J> {
    /// `workers` awake threads on `num_pes` PEs; `capacity` queued jobs.
    pub(crate) fn new(num_pes: u32, workers: usize, capacity: usize) -> Self {
        Dispatch {
            jobs: Vec::new(),
            rr: 0,
            last_id: 0,
            park: vec![Park::Awake; workers],
            num_pes,
            capacity,
            draining: false,
            shutdown: false,
            idle_wakes: 0,
            wakes_issued: 0,
            inline_blocks: 0,
        }
    }

    /// Jobs queued and not yet terminal.
    pub(crate) fn len(&self) -> usize {
        self.jobs.len()
    }

    fn find(&self, id: u64) -> Option<usize> {
        self.jobs.binary_search_by_key(&id, |j| j.id).ok()
    }

    /// Whether job `id` is not terminal and a block of it was claimed.
    pub(crate) fn dispatched(&self, id: u64) -> bool {
        self.find(id).is_some_and(|i| self.jobs[i].next > 0)
    }

    /// Whether job `id` is cancelled, failed or terminal.
    pub(crate) fn stopped(&self, id: u64) -> bool {
        self.find(id).is_none_or(|i| self.jobs[i].cancelled)
    }

    /// Up to `max` parked workers of PEs `0..pe_limit`, in index order.
    fn parked(&self, pe_limit: u32, max: usize) -> Vec<usize> {
        let pe = |w: usize| w as u32 % self.num_pes;
        (0..self.park.len())
            .filter(|&w| self.park[w] == Park::Parked && pe(w) < pe_limit)
            .take(max)
            .collect()
    }

    fn wake(&mut self, workers: &[usize]) {
        for &w in workers {
            self.park[w] = Park::Woken;
        }
        self.wakes_issued += workers.len() as u64;
    }

    /// Submit a job of `blocks` blocks on PEs `0..pe_limit`; `make` builds
    /// its token from its id, or comes back with the refusal (draining, or
    /// `capacity` jobs queued). A `stand_in` one-block job runs on its
    /// submitter for a parked worker that may claim it; else one per block
    /// wakes.
    pub(crate) fn submit<F: FnOnce(u64) -> J>(
        &mut self,
        blocks: usize,
        pe_limit: u32,
        stand_in: bool,
        make: F,
    ) -> Result<(J, Admitted), (RuntimeError, F)> {
        if self.draining {
            return Err((RuntimeError::ShuttingDown, make));
        }
        if blocks > 0 && self.jobs.len() >= self.capacity {
            let capacity = self.capacity;
            return Err((RuntimeError::QueueFull { capacity }, make));
        }
        self.last_id += 1;
        let job = make(self.last_id);
        if blocks == 0 {
            return Ok((job, Admitted::Empty));
        }
        let wake = self.parked(pe_limit, blocks);
        let mut slot = Slot {
            id: self.last_id,
            job: job.clone(),
            blocks,
            pe_limit,
            next: 0,
            in_flight: 0,
            done: 0,
            cancelled: false,
        };
        let admitted = if let (true, Some(&w)) = (stand_in && blocks == 1, wake.first()) {
            (slot.next, slot.in_flight) = (1, 1);
            self.park[w] = Park::Lent;
            self.inline_blocks += 1;
            Admitted::StandIn(w)
        } else {
            self.wake(&wake);
            Admitted::Wake(wake)
        };
        self.jobs.push(slot);
        Ok((job, admitted))
    }

    /// Free worker `w` claims its PE's next block, round-robin, or parks.
    pub(crate) fn claim(&mut self, w: usize) -> Claim<J> {
        let was_asleep = match (self.shutdown, self.park[w]) {
            (true, _) => return Claim::Exit,
            (_, Park::Lent) => return Claim::Park,
            (_, park) => park != Park::Awake,
        };
        let (pe, n) = (w as u32 % self.num_pes, self.jobs.len());
        let Some(i) = (0..n)
            .map(|k| (self.rr + k) % n)
            .find(|&i| self.jobs[i].claimable_by(pe))
        else {
            self.idle_wakes += u64::from(was_asleep);
            self.park[w] = Park::Parked;
            return Claim::Park;
        };
        self.park[w] = Park::Awake;
        self.rr = (i + 1) % n;
        let job = &mut self.jobs[i];
        job.next += 1;
        job.in_flight += 1;
        Claim::Run(job.job.clone(), job.next - 1)
    }

    /// A block of job `id` ended `ran`; lent worker `w` is given back, woken
    /// only if a block it may claim was queued meanwhile (or at shutdown).
    pub(crate) fn block_done<E>(
        &mut self,
        id: u64,
        ran: Ended<E>,
        lent: Option<usize>,
    ) -> Finished<E> {
        let mut out = Finished {
            counted: false,
            end: None,
            wake: false,
        };
        if let Some(i) = self.find(id) {
            let job = &mut self.jobs[i];
            job.in_flight -= 1;
            out.counted = matches!(ran, Ended::Done);
            job.done += usize::from(out.counted);
            out.end = match ran {
                // First failure wins; other blocks in flight drain.
                Ended::Failed(e) => Some(Ended::Failed(e)),
                _ if job.done == job.blocks => Some(Ended::Done),
                _ if job.cancelled && job.in_flight == 0 => Some(Ended::Cancelled),
                _ => None,
            };
            if out.end.is_some() {
                self.jobs.remove(i);
            }
        }
        if let Some(w) = lent {
            let pe = w as u32 % self.num_pes;
            out.wake = self.shutdown || self.jobs.iter().any(|j| j.claimable_by(pe));
            self.park[w] = Park::Parked;
            if out.wake {
                self.wake(&[w]);
            }
        }
        out
    }

    /// Cancel job `id`; whether it retires now, not on its last block.
    pub(crate) fn cancel(&mut self, id: u64) -> bool {
        let Some(i) = self.find(id) else {
            return false;
        };
        self.jobs[i].cancelled = true;
        let now = self.jobs[i].in_flight == 0;
        if now {
            self.jobs.remove(i);
        }
        now
    }

    /// Admit no more jobs; the caller wakes the space waiters.
    pub(crate) fn drain(&mut self) {
        self.draining = true;
    }

    /// Admit nothing more, cancel every job and stop the pool: the
    /// workers to notify, and the jobs that retire now (cancelled).
    pub(crate) fn shutdown(&mut self) -> (Vec<usize>, Vec<J>) {
        (self.draining, self.shutdown) = (true, true);
        let wake = self.parked(self.num_pes, usize::MAX);
        self.wake(&wake);
        let mut retired = Vec::new();
        self.jobs.retain_mut(|j| {
            j.cancelled = true;
            if j.in_flight == 0 {
                retired.push(j.job.clone());
            }
            j.in_flight > 0
        });
        (wake, retired)
    }
}

#[cfg(test)]
mod tests {
    //! An exhaustive explorer of the protocol: for each job mix below
    //! (up to three submitters, up to three blocks a job) on two PEs of
    //! two control threads each, a breadth-first search with a visited
    //! set over every interleaving of submits, claims, block ends,
    //! stand-ins, cancels, a drain and a shutdown. A control
    //! thread here is what the scheduler's `worker_loop` makes of the
    //! core's answers: it claims, runs, reports, sleeps until notified
    //! (or spuriously woken) and exits. A notification reaches a
    //! sleeping thread, which claims under the same lock hold it wakes
    //! with: the scheduler parks and waits under the lock it decides
    //! its wakes under. The pool starts parked. A violation panics with
    //! the shortest interleaving that reaches it.
    use super::*;
    use std::collections::{HashMap, VecDeque};

    const PES: u32 = 2;
    const WORKERS: usize = 4;
    /// A guard on the search's memory, far above any scenario below.
    const MAX_STATES: usize = 400_000;

    /// One submitter's job.
    #[derive(Clone, Copy)]
    struct Spec {
        blocks: usize,
        pe_limit: u32,
        /// Submitted through `submit_then`, eligible to stand in.
        stand_in: bool,
        /// Its last block fails for good.
        fails: bool,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Thread {
        /// Back from a block, about to take the lock and claim.
        Free,
        Asleep,
        Running(usize, usize),
        Exited,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Submitter {
        Ready,
        /// Running its job's one block for lent worker `.0`.
        StandingIn(usize),
        /// `submit` returned (admitted or refused).
        Returned,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        core: Dispatch<usize>,
        threads: [Thread; WORKERS],
        /// A notification is on its way to this thread.
        notified: [bool; WORKERS],
        subs: Vec<Submitter>,
        /// Each job's id once admitted.
        ids: Vec<u64>,
        /// Runs of each block of each job.
        ran: Vec<[u8; 3]>,
        /// How each job retired, and how often.
        ended: Vec<Option<Ended<()>>>,
        retired: Vec<u8>,
        cancelled: Vec<bool>,
        drained: bool,
        shut: bool,
    }

    /// One step of the search, printed in a violation's interleaving.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Submit(usize),
        StandInDone(usize),
        Claim(usize),
        BlockDone(usize),
        /// A sleeping thread wakes, notified or not, and claims.
        Wake(usize),
        Cancel(usize),
        Drain,
        Shutdown,
    }

    impl World {
        fn new(jobs: usize, capacity: usize) -> Self {
            let mut core = Dispatch::new(PES, WORKERS, capacity);
            core.park = vec![Park::Parked; WORKERS];
            World {
                core,
                threads: [Thread::Asleep; WORKERS],
                notified: [false; WORKERS],
                subs: vec![Submitter::Ready; jobs],
                ids: vec![0; jobs],
                ran: vec![[0; 3]; jobs],
                ended: vec![None; jobs],
                retired: vec![0; jobs],
                cancelled: vec![false; jobs],
                drained: false,
                shut: false,
            }
        }

        fn retire(&mut self, job: usize, how: Ended<()>) -> Result<(), String> {
            self.retired[job] += 1;
            self.ended[job] = Some(how);
            match self.retired[job] {
                1 => Ok(()),
                n => Err(format!("job {job} retired {n} times")),
            }
        }

        fn run(&mut self, job: usize, block: usize) -> Result<(), String> {
            self.ran[job][block] += 1;
            match self.ran[job][block] {
                1 => Ok(()),
                n => Err(format!("block {block} of job {job} ran {n} times")),
            }
        }

        fn notify(&mut self, wake: &[usize], before: &[Park]) -> Result<(), String> {
            for &w in wake {
                if before[w] == Park::Lent {
                    return Err(format!("worker {w} woken while lent"));
                }
                self.notified[w] = true;
            }
            Ok(())
        }

        fn finish(&mut self, job: usize, f: Finished<()>) -> Result<(), String> {
            if let Some(how) = f.end {
                self.retire(job, how)?;
            }
            Ok(())
        }

        /// Every step enabled here.
        fn steps(&self) -> Vec<Step> {
            let mut steps = Vec::new();
            for (i, s) in self.subs.iter().enumerate() {
                match s {
                    Submitter::Ready if !self.shut => steps.push(Step::Submit(i)),
                    Submitter::StandingIn(_) => steps.push(Step::StandInDone(i)),
                    // Cancelling a terminal job changes nothing.
                    Submitter::Returned
                        if self.ids[i] != 0 && self.retired[i] == 0 && !self.cancelled[i] =>
                    {
                        steps.push(Step::Cancel(i))
                    }
                    _ => {}
                }
            }
            for (w, t) in self.threads.iter().enumerate() {
                match t {
                    Thread::Free => steps.push(Step::Claim(w)),
                    Thread::Running(..) => steps.push(Step::BlockDone(w)),
                    // Spuriously, only a lent thread: it must sleep on.
                    // A parked one claims like a notified one.
                    Thread::Asleep if self.notified[w] || self.core.park[w] == Park::Lent => {
                        steps.push(Step::Wake(w))
                    }
                    Thread::Asleep => {}
                    Thread::Exited => {}
                }
            }
            // Draining changes nothing once every submitter returned.
            if !self.drained && self.subs.contains(&Submitter::Ready) {
                steps.push(Step::Drain);
            }
            if !self.shut {
                steps.push(Step::Shutdown);
            }
            steps
        }

        fn apply(&mut self, step: Step, specs: &[Spec]) -> Result<(), String> {
            let before = self.core.park.clone();
            match step {
                Step::Submit(i) => {
                    let s = specs[i];
                    let mut id = 0;
                    let make = |new| {
                        id = new;
                        i
                    };
                    match self.core.submit(s.blocks, s.pe_limit, s.stand_in, make) {
                        Ok((_, Admitted::Empty)) => unreachable!("every job has a block"),
                        Ok((_, Admitted::Wake(wake))) => {
                            self.notify(&wake, &before)?;
                            self.subs[i] = Submitter::Returned;
                        }
                        Ok((_, Admitted::StandIn(w))) => {
                            self.run(i, 0)?;
                            self.subs[i] = Submitter::StandingIn(w);
                        }
                        // A blocking submitter waits and retries: the
                        // step stays enabled.
                        Err((RuntimeError::QueueFull { .. }, _)) => {}
                        Err(_) => self.subs[i] = Submitter::Returned,
                    }
                    self.ids[i] = id;
                }
                Step::StandInDone(i) => {
                    let Submitter::StandingIn(w) = self.subs[i] else {
                        unreachable!()
                    };
                    let f = self.core.block_done(self.ids[i], Ended::Done, Some(w));
                    if f.wake {
                        self.notified[w] = true;
                    }
                    self.finish(i, f)?;
                    self.subs[i] = Submitter::Returned;
                }
                Step::Claim(w) | Step::Wake(w) => {
                    self.notified[w] = false;
                    self.threads[w] = match self.core.claim(w) {
                        Claim::Run(job, block) => {
                            self.run(job, block)?;
                            Thread::Running(job, block)
                        }
                        Claim::Park => Thread::Asleep,
                        Claim::Exit => Thread::Exited,
                    };
                }
                Step::BlockDone(w) => {
                    let Thread::Running(job, block) = self.threads[w] else {
                        unreachable!()
                    };
                    let s = specs[job];
                    let ran = if s.fails && block + 1 == s.blocks {
                        Ended::Failed(())
                    } else {
                        Ended::Done
                    };
                    let f = self.core.block_done(self.ids[job], ran, None);
                    if f.wake {
                        return Err(format!("a block done on worker {w} woke a worker"));
                    }
                    self.finish(job, f)?;
                    self.threads[w] = Thread::Free;
                }
                Step::Cancel(i) => {
                    self.cancelled[i] = true;
                    if self.core.cancel(self.ids[i]) {
                        self.retire(i, Ended::Cancelled)?;
                    }
                }
                Step::Drain => {
                    self.drained = true;
                    self.core.drain();
                }
                Step::Shutdown => {
                    self.shut = true;
                    let (wake, retired) = self.core.shutdown();
                    self.notify(&wake, &before)?;
                    for job in retired {
                        self.retire(job, Ended::Cancelled)?;
                    }
                }
            }
            let given_back = matches!(step, Step::StandInDone(_));
            for (w, (was, is)) in before.iter().zip(&self.core.park).enumerate() {
                if *was == Park::Lent && *is != Park::Lent && !given_back {
                    return Err(format!("{step:?} took lent worker {w} back"));
                }
            }
            // Only the search's state: the counters are the scheduler's.
            (
                self.core.idle_wakes,
                self.core.wakes_issued,
                self.core.inline_blocks,
            ) = (0, 0, 0);
            self.check(specs)
        }

        /// The invariants every reachable state keeps.
        fn check(&self, specs: &[Spec]) -> Result<(), String> {
            // No lost wake-up: a job with a block to claim, and an
            // un-lent thread asleep with no wake coming that may claim
            // it, has an eligible thread awake or on its way.
            for job in &self.core.jobs {
                let eligible = |w: usize| (w as u32 % PES) < job.pe_limit;
                let claimable = !job.cancelled && job.next < job.blocks;
                let stranded = (0..WORKERS).any(|w| {
                    eligible(w)
                        && self.threads[w] == Thread::Asleep
                        && self.core.park[w] != Park::Lent
                        && !self.notified[w]
                });
                let covered = (0..WORKERS).any(|w| {
                    eligible(w)
                        && (matches!(self.threads[w], Thread::Free | Thread::Running(..))
                            || self.notified[w])
                });
                if claimable && stranded && !covered {
                    return Err(format!(
                        "job {} has a block to claim and its threads sleep unwoken",
                        job.job
                    ));
                }
            }
            // Nothing runs and nothing will wake: whatever a later submit
            // might rescue, every job admitted so far must have retired.
            let settled = !self
                .subs
                .iter()
                .any(|s| matches!(s, Submitter::StandingIn(_)))
                && self.threads.iter().enumerate().all(|(w, t)| match t {
                    Thread::Asleep => !self.notified[w],
                    Thread::Exited => true,
                    _ => false,
                });
            if !settled {
                return Ok(());
            }
            for (j, s) in specs.iter().enumerate() {
                if self.ids[j] != 0 && self.retired[j] != 1 {
                    return Err(format!("nothing moves and job {j} never retired"));
                }
                let all_ran = self.ran[j][..s.blocks].iter().all(|&n| n == 1);
                if self.ended[j] == Some(Ended::Done) && !all_ran {
                    return Err(format!("job {j} completed with a block never run"));
                }
            }
            if self.shut && self.threads.iter().any(|t| *t != Thread::Exited) {
                return Err("shut down, and a thread sleeps on forever".into());
            }
            Ok(())
        }
    }

    /// Search every interleaving of `specs` submitted to a queue of
    /// `capacity`; the number of states.
    fn explore(specs: &[Spec], capacity: usize) -> usize {
        let start = World::new(specs.len(), capacity);
        let mut seen: HashMap<World, usize> = HashMap::from([(start.clone(), 0)]);
        let mut trail: Vec<(usize, Option<Step>)> = vec![(0, None)];
        let mut queue = VecDeque::from([(start, 0)]);
        while let Some((world, at)) = queue.pop_front() {
            assert!(seen.len() < MAX_STATES, "over {MAX_STATES} states");
            for step in world.steps() {
                let mut next = world.clone();
                let verdict = next.apply(step, specs);
                if let Err(why) = verdict {
                    let mut path = vec![step];
                    let mut i = at;
                    while let (parent, Some(s)) = trail[i] {
                        path.push(s);
                        i = parent;
                    }
                    path.reverse();
                    panic!("{why}, after the shortest interleaving {path:?}");
                }
                if !seen.contains_key(&next) {
                    seen.insert(next.clone(), trail.len());
                    queue.push_back((next, trail.len()));
                    trail.push((at, Some(step)));
                }
            }
        }
        seen.len()
    }

    fn spec(blocks: usize, pe_limit: u32, stand_in: bool, fails: bool) -> Spec {
        Spec {
            blocks,
            pe_limit,
            stand_in,
            fails,
        }
    }

    #[test]
    fn every_interleaving_keeps_the_protocol() {
        let t = |b, p, si| spec(b, p, si, false);
        // (jobs, queue capacity)
        let scenarios = [
            // Three submitters, the last one refused until a slot frees.
            (vec![t(1, 2, true), t(1, 1, true), t(1, 1, false)], 2),
            // Both PE-0 threads lent while a PE-0 job is queued.
            (vec![t(1, 1, true), t(1, 1, true), t(1, 1, false)], 3),
            // A PE-0 job longer than its threads, and a stand-in.
            (vec![t(3, 1, false), t(1, 1, true)], 2),
            (vec![t(3, 2, false), t(1, 1, true)], 2),
            (vec![t(2, 1, false), t(1, 2, true), t(1, 1, true)], 2),
            // A job whose last block fails for good.
            (vec![spec(2, 2, false, true), t(1, 2, true)], 2),
            (vec![spec(3, 1, false, true), t(1, 1, true)], 2),
        ];
        for (specs, capacity) in scenarios {
            let t0 = std::time::Instant::now();
            let states = explore(&specs, capacity);
            println!("{states} states in {:?}", t0.elapsed());
        }
    }
}
