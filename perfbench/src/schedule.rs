//! Workload definitions and their seeded input schedules.
//!
//! Every input the service sees is a wire [`JobSpec`] generated here from
//! the workload seed: the same seed yields the same sequence of specs, and
//! the service never sees the seed itself.

use tracto_proto::{ChainSpec, DatasetSpec, JobKind, JobSpec, TrackSpec};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every job is a `track` of a distinct dataset-1 recipe: each one
    /// builds its phantom, hashes it and runs Step 1.
    ColdStep1,
    /// Every job re-tracks one of two datasets estimated during set-up:
    /// tracking, batching and key hashing do the work, MCMC none.
    WarmTrack,
    /// Socket clients against a durable server: new keys arrive as an
    /// `estimate` plus a `track`, repeats re-track a key seen earlier.
    SocketMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdStep1,
        Workload::WarmTrack,
        Workload::SocketMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStep1 => "cold_step1",
            Workload::WarmTrack => "warm_track",
            Workload::SocketMix => "socket_mix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs the closed loop keeps outstanding.
    pub fn window(self) -> usize {
        match self {
            Workload::ColdStep1 => 2,
            Workload::WarmTrack => 8,
            Workload::SocketMix => 4,
        }
    }

    /// Client connections the loop opens (0 = in-process submission).
    pub fn connections(self) -> usize {
        match self {
            Workload::SocketMix => 2,
            _ => 0,
        }
    }
}

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (and a per-use `stream` tag).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// One job of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// What the service receives.
    pub spec: JobSpec,
}

impl Job {
    /// Jobs with equal class keys must produce identical outputs.
    pub fn class(&self) -> String {
        self.spec.to_json_string()
    }

    /// Whether this is a tracking job (it has a lengths digest).
    pub fn is_track(&self) -> bool {
        matches!(self.spec.kind, JobKind::Track(_))
    }
}

/// What arrives at once: one job, or an `estimate` immediately followed by
/// a `track` of the same key.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Submitted back to back, in order.
    pub jobs: Vec<Job>,
}

/// Step-1 schedule shared by every workload: short enough that one
/// dataset-1 job at scale 0.15 takes about a quarter second.
const CHAIN: ChainSpec = ChainSpec {
    burnin: 60,
    samples: 5,
    interval: 1,
};

/// `max_steps` values `warm_track` cycles through.
pub const WARM_MAX_STEPS: [u32; 5] = [60, 120, 180, 240, 300];

/// `socket_mix` introduces a new key in exactly `SOCKET_NEW_KEYS` of every
/// `SOCKET_BLOCK` arrivals, in seeded order: a per-arrival coin would let
/// the share of (expensive) new keys, and so the work per job, drift
/// between seeds.
const SOCKET_NEW_KEYS: usize = 3;
const SOCKET_BLOCK: usize = 10;

/// `socket_mix` re-tracks pick among this many most recent keys half of
/// the time (the rest are uniform over every key seen), so repeats hit
/// both the memory tier and the disk tier.
const SOCKET_RECENT_KEYS: usize = 8;

fn recipe(kind: &str, scale: f64, seed: u64, snr: f64) -> DatasetSpec {
    DatasetSpec {
        kind: kind.into(),
        scale,
        seed,
        snr: Some(snr),
        upload: None,
    }
}

fn estimate(dataset: DatasetSpec, seed: u64) -> Job {
    let mut spec = JobSpec::estimate(dataset);
    spec.chain = CHAIN;
    spec.seed = seed;
    Job { spec }
}

fn track(dataset: DatasetSpec, seed: u64, max_steps: u32) -> Job {
    let mut spec = JobSpec::track(dataset);
    spec.chain = CHAIN;
    spec.seed = seed;
    spec.kind = JobKind::Track(TrackSpec {
        max_steps,
        ..TrackSpec::default()
    });
    Job { spec }
}

/// A `socket_mix` key: one `single` recipe plus its chain seed.
#[derive(Debug, Clone)]
struct Key {
    dataset: DatasetSpec,
    seed: u64,
}

impl Key {
    fn track(&self) -> Job {
        track(self.dataset.clone(), self.seed, 200)
    }
}

/// The seeded, unbounded input sequence of one workload.
#[derive(Debug, Clone)]
pub struct Schedule {
    workload: Workload,
    rng: Rng,
    /// Arrivals generated so far.
    drawn: u64,
    /// `cold_step1`: dataset seeds are `base + i`, so every job is distinct.
    base: u64,
    /// `warm_track`: the two datasets (with their chain seeds) and the
    /// seeded order the ten (dataset, max_steps) combinations cycle in.
    warm: Vec<(DatasetSpec, u64)>,
    warm_order: Vec<(usize, u32)>,
    /// `socket_mix`: keys introduced so far, in order, and which arrivals
    /// of the current block introduce one.
    keys: Vec<Key>,
    block: Vec<bool>,
}

impl Schedule {
    /// The schedule of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Schedule {
        let mut rng = Rng::new(seed, workload as u64 + 1);
        let base = rng.next_u64() >> 20;
        let mut warm = Vec::new();
        let mut warm_order = Vec::new();
        if workload == Workload::WarmTrack {
            for _ in 0..2 {
                let ds = recipe("1", 0.3, rng.next_u64() >> 20, 25.0);
                warm.push((ds, rng.next_u64() >> 20));
            }
            for d in 0..warm.len() {
                for &m in &WARM_MAX_STEPS {
                    warm_order.push((d, m));
                }
            }
            rng.shuffle(&mut warm_order);
        }
        Schedule {
            workload,
            rng,
            drawn: 0,
            base,
            warm,
            warm_order,
            keys: Vec::new(),
            block: Vec::new(),
        }
    }

    /// Work done before the timed phase of set-up round `round`: two cold
    /// warm-up jobs, the two `warm_track` estimations, or two new-key
    /// pairs. Set-up jobs never reappear in the timed phase.
    pub fn setup_jobs(&self, round: u64) -> Vec<Job> {
        // Indices far past any timed-phase arrival, distinct per round.
        let warmup = [u64::MAX - 2 * round, u64::MAX - 2 * round - 1];
        match self.workload {
            Workload::ColdStep1 => warmup.iter().map(|&i| self.cold_job(i)).collect(),
            Workload::WarmTrack => self
                .warm
                .iter()
                .map(|(ds, seed)| estimate(ds.clone(), *seed))
                .collect(),
            Workload::SocketMix => warmup
                .iter()
                .flat_map(|&i| {
                    let key = self.socket_key(i);
                    [estimate(key.dataset.clone(), key.seed), key.track()]
                })
                .collect(),
        }
    }

    fn cold_job(&self, i: u64) -> Job {
        let ds = recipe("1", 0.15, self.base.wrapping_add(i), 25.0);
        track(ds, self.base ^ 0x5eed, 200)
    }

    fn socket_key(&self, i: u64) -> Key {
        Key {
            dataset: recipe("single", 0.1, self.base.wrapping_add(i), 20.0),
            seed: self.base.wrapping_add(i) ^ 0x5eed,
        }
    }

    /// Draw the next arrival.
    pub fn next_arrival(&mut self) -> Arrival {
        let i = self.drawn;
        self.drawn += 1;
        let jobs = match self.workload {
            Workload::ColdStep1 => vec![self.cold_job(i)],
            Workload::WarmTrack => {
                let (d, max_steps) = self.warm_order[i as usize % self.warm_order.len()];
                let (ds, seed) = &self.warm[d];
                vec![track(ds.clone(), *seed, max_steps)]
            }
            Workload::SocketMix => {
                if self.block.is_empty() {
                    self.block = (0..SOCKET_BLOCK).map(|k| k < SOCKET_NEW_KEYS).collect();
                    self.rng.shuffle(&mut self.block);
                }
                let new_key = self.block.pop().expect("refilled above");
                if self.keys.is_empty() || new_key {
                    let key = self.socket_key(self.keys.len() as u64);
                    let pair = vec![estimate(key.dataset.clone(), key.seed), key.track()];
                    self.keys.push(key);
                    pair
                } else {
                    let n = self.keys.len();
                    let pick = if self.rng.chance(0.5) {
                        n - 1 - self.rng.below(n.min(SOCKET_RECENT_KEYS))
                    } else {
                        self.rng.below(n)
                    };
                    vec![self.keys[pick].track()]
                }
            }
        };
        Arrival { jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        let mut s = Schedule::new(workload, seed);
        (0..n)
            .flat_map(|_| s.next_arrival().jobs)
            .map(|j| j.class())
            .collect()
    }

    #[test]
    fn schedules_are_deterministic_per_seed_and_differ_between_seeds() {
        for w in Workload::ALL {
            assert_eq!(classes(w, 7, 60), classes(w, 7, 60), "{}", w.name());
            assert_ne!(classes(w, 7, 60), classes(w, 8, 60), "{}", w.name());
        }
    }

    #[test]
    fn cold_jobs_are_all_distinct_and_setup_jobs_never_recur() {
        let s = Schedule::new(Workload::ColdStep1, 3);
        let timed = classes(Workload::ColdStep1, 3, 500);
        let unique: std::collections::HashSet<_> = timed.iter().collect();
        assert_eq!(unique.len(), timed.len());
        for round in 0..crate::workloads::SETUP_ROUNDS {
            for job in s.setup_jobs(round) {
                assert!(!unique.contains(&job.class()));
            }
        }
    }

    #[test]
    fn warm_jobs_cycle_over_ten_estimated_combinations() {
        let s = Schedule::new(Workload::WarmTrack, 5);
        let estimated: Vec<_> = s
            .setup_jobs(0)
            .iter()
            .map(|j| (j.spec.dataset.clone(), j.spec.seed))
            .collect();
        let mut s2 = s.clone();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            let job = s2.next_arrival().jobs.remove(0);
            assert!(estimated.contains(&(job.spec.dataset.clone(), job.spec.seed)));
            seen.insert(job.class());
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn socket_mix_introduces_about_thirty_percent_new_keys() {
        let mut s = Schedule::new(Workload::SocketMix, 11);
        let arrivals: Vec<_> = (0..2000).map(|_| s.next_arrival()).collect();
        let pairs = arrivals.iter().filter(|a| a.jobs.len() == 2).count();
        let share = pairs as f64 / arrivals.len() as f64;
        assert!((0.25..0.35).contains(&share), "new-key share {share}");
        for a in arrivals.iter().filter(|a| a.jobs.len() == 2) {
            assert!(!a.jobs[0].is_track() && a.jobs[1].is_track());
            assert_eq!(a.jobs[0].spec.dataset, a.jobs[1].spec.dataset);
        }
    }
}
