//! The farm crew: one process-wide set of persistent helper threads that
//! EP engine farms borrow, one colour batch at a time.
//!
//! The crew holds `available_parallelism() − 1` named helpers
//! (`bayesperf-farm-<i>`), spawned together the first time any driver asks
//! for help. A *driver* — the thread calling
//! [`ExpectationPropagation::run_farm`](crate::ExpectationPropagation::run_farm)
//! — runs each batch through [`for_each`]:
//!
//! * **Claiming.** The driver tries to claim up to `helpers` idle crew
//!   members and never waits for one: a busy crew simply means the batch
//!   runs on the driver alone. However many engines share the process (N
//!   monitors, fleet shards), the helper count stays at cores − 1: the
//!   crew never grows with the number of engines.
//! * **Dynamic split.** Every participant, the driver included, takes the
//!   next item through one shared atomic index until the batch is
//!   exhausted, so unequal item costs balance themselves.
//! * **Waiting.** A helper spins for [`HELPER_SPIN`] after a job before it
//!   parks — consecutive batches of a sweep arrive well inside that — and
//!   the driver spins for [`DRIVER_SPIN`] on its claimed helpers before it
//!   parks. A posted job that a helper has not picked up by the time the
//!   driver finished the batch alone is retracted, so the driver never
//!   waits on a helper that is still waking up.
//! * **Completion and panics.** The driver returns, or unwinds, only after
//!   every claimed helper has handed the job back. A panic inside a helper
//!   is caught there (the helper survives) and re-raised on the driver.
//!
//! Which participant runs which item is timing-dependent; callers keep
//! results deterministic by making each item's output a pure function of
//! its index (see the engine farm's determinism guarantee).

use std::any::Any;
use std::hint;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a helper keeps spinning for its next job before it parks.
const HELPER_SPIN: Duration = Duration::from_micros(50);

/// How long a driver spins for its claimed helpers before it parks.
const DRIVER_SPIN: Duration = Duration::from_micros(20);

/// A snapshot of the process-wide crew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrewStatus {
    /// Helper threads spawned (0 until a farm first asks for help; never
    /// more than `available_parallelism() − 1`).
    pub helpers: usize,
    /// Helpers not claimed by any driver right now.
    pub idle: usize,
}

/// The current size and idle count of the farm crew.
pub fn crew_status() -> CrewStatus {
    let helpers = CREW.get().map_or(&[][..], |c| &c.helpers[..]);
    CrewStatus {
        helpers: helpers.len(),
        idle: helpers
            .iter()
            .filter(|h| !h.slot.claimed.load(Relaxed))
            .count(),
    }
}

/// Calls `work(i)` once for every `i in 0..len`, on the calling thread and
/// on up to `helpers` idle crew members, and returns when every call has.
///
/// A panic in any call is re-raised on the calling thread after every
/// claimed helper has returned.
pub(crate) fn for_each(len: usize, helpers: usize, work: &(dyn Fn(usize) + Sync)) {
    let job = Job {
        work,
        len,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        driver: thread::current(),
    };
    let want = helpers.min(len.saturating_sub(1));
    let crew = (want > 0).then(crew);
    let done = Completion {
        job: &job,
        posted: (&job as *const Job<'_>).cast_mut().cast(),
        crew,
    };
    let mut claimed = 0;
    for h in crew.map_or(&[][..], |c| &c.helpers[..]) {
        if claimed == want {
            break;
        }
        // Acquire pairs with the Release that idled the helper, so its
        // last use of a previous job happens before this post.
        if h.slot
            .claimed
            .compare_exchange(false, true, Acquire, Relaxed)
            .is_ok()
        {
            job.pending.fetch_add(1, Relaxed);
            // Release pairs with the helper's Acquire swap: it sees the
            // job fully built.
            h.slot.job.store(done.posted, Release);
            h.thread.unpark();
            claimed += 1;
        }
    }
    job.run();
    drop(done);
    let payload = job
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// One batch: items `0..len` handed out through `next`.
struct Job<'a> {
    work: &'a (dyn Fn(usize) + Sync),
    len: usize,
    next: AtomicUsize,
    /// Claimed helpers that have not handed the job back yet.
    pending: AtomicUsize,
    /// The first panic a helper caught, re-raised on the driver.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    driver: Thread,
}

impl Job<'_> {
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Relaxed);
            if i >= self.len {
                return;
            }
            (self.work)(i);
        }
    }
}

/// The driver's completion guard: dropping it — on return or while
/// unwinding — retracts posts no helper has picked up and waits until
/// every claimed helper has handed the job back. This is what keeps the
/// job (and everything its `work` borrows) alive for as long as a helper
/// can touch it.
struct Completion<'a> {
    job: &'a Job<'a>,
    /// The job with its lifetime erased, as posted to helper slots.
    posted: *mut Job<'static>,
    crew: Option<&'static Crew>,
}

impl Drop for Completion<'_> {
    fn drop(&mut self) {
        for h in self.crew.map_or(&[][..], |c| &c.helpers[..]) {
            if h.slot
                .job
                .compare_exchange(self.posted, ptr::null_mut(), Relaxed, Relaxed)
                .is_ok()
            {
                h.slot.claimed.store(false, Release);
                self.job.pending.fetch_sub(1, Relaxed);
            }
        }
        let spin_until = Instant::now() + DRIVER_SPIN;
        // Acquire pairs with each helper's Release decrement: everything
        // a helper did with the job happens before the driver moves on.
        while self.job.pending.load(Acquire) != 0 {
            if Instant::now() < spin_until {
                hint::spin_loop();
            } else {
                thread::park();
            }
        }
    }
}

/// A helper's mailbox.
#[derive(Default)]
struct Slot {
    /// Set by the claiming driver, cleared by the helper when it hands the
    /// job back (or by the driver when it retracts the post).
    claimed: AtomicBool,
    /// The posted job; taken by the helper, or retracted by the driver.
    job: AtomicPtr<Job<'static>>,
}

impl Slot {
    /// The helper thread's body: take a job, run it, hand it back.
    fn serve(&self) {
        let mut spin_until = Instant::now();
        loop {
            if self.job.load(Relaxed).is_null() {
                if Instant::now() < spin_until {
                    hint::spin_loop();
                } else {
                    thread::park();
                }
                continue;
            }
            let posted = self.job.swap(ptr::null_mut(), Acquire);
            if posted.is_null() {
                continue; // retracted by the driver
            }
            // SAFETY: the driver posted a live `Job` and does not return or
            // unwind past its `Completion` guard until `pending` reaches
            // zero; this helper decrements `pending` only after its last
            // use of `job` below.
            let job = unsafe { &*posted };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job.run())) {
                // Nothing panics while this lock is held, and the Option
                // is valid at every step, so a poisoned lock is usable.
                job.panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
            let driver = job.driver.clone();
            self.claimed.store(false, Release);
            if job.pending.fetch_sub(1, Release) == 1 {
                driver.unpark();
            }
            spin_until = Instant::now() + HELPER_SPIN;
        }
    }
}

struct Helper {
    slot: Arc<Slot>,
    thread: Thread,
}

/// The process-wide crew.
struct Crew {
    helpers: Vec<Helper>,
}

static CREW: OnceLock<Crew> = OnceLock::new();

/// The crew, spawning it on first use. A helper the OS refuses to spawn
/// just leaves the crew smaller. Helpers live as long as the process and
/// are never joined: `serve` contains every panic a job raises, so a
/// helper has nothing to report at exit.
fn crew() -> &'static Crew {
    CREW.get_or_init(|| {
        let n = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        let helpers = (0..n)
            .map_while(|i| {
                let slot = Arc::new(Slot::default());
                let served = slot.clone();
                let handle = thread::Builder::new()
                    .name(format!("bayesperf-farm-{i}"))
                    .spawn(move || served.serve())
                    .ok()?;
                Some(Helper {
                    slot,
                    thread: handle.thread().clone(),
                })
            })
            .collect();
        Crew { helpers }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_item_runs_exactly_once() {
        for helpers in [0, 1, 7] {
            let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
            for_each(hits.len(), helpers, &|i| {
                hits[i].fetch_add(1, Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Relaxed) == 1));
        }
    }

    #[test]
    fn crew_never_exceeds_cores_minus_one() {
        for_each(4, 8, &|_| {});
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert!(crew_status().helpers < cores);
    }

    #[test]
    fn empty_and_single_item_batches_run_inline() {
        for_each(0, 3, &|_| panic!("no items"));
        let me = thread::current().id();
        for_each(1, 3, &|_| assert_eq!(thread::current().id(), me));
    }
}
