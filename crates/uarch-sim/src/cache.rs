//! Set-associative caches and the three-level data/instruction hierarchy.

use crate::config::{CacheConfig, MicroarchConfig};

/// Cache line size in bytes (fixed across the hierarchy, like gem5's
/// default).
pub const LINE_BYTES: u32 = 64;

/// One set-associative cache level with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u32,
    ways: u32,
    /// `tags[set * ways + way]` — tag value, `u32::MAX` = invalid. A tag
    /// is `addr / LINE_BYTES / sets` of a 32-bit address, so it never
    /// reaches the sentinel.
    tags: Vec<u32>,
    /// Per-line LRU age: lower = more recently used.
    ages: Vec<u32>,
    /// Hit latency in cycles.
    latency: u32,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or ways.
    pub fn new(cfg: CacheConfig) -> Self {
        let ways = cfg.assoc.max(1);
        let sets = (cfg.size / (LINE_BYTES as u64 * ways as u64)).max(1) as u32;
        Cache {
            sets,
            ways,
            tags: vec![u32::MAX; (sets * ways) as usize],
            ages: vec![0; (sets * ways) as usize],
            latency: cfg.latency,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    fn index(&self, addr: u32) -> (u32, u32) {
        let line = addr / LINE_BYTES;
        (line % self.sets, line / self.sets)
    }

    /// Looks up `addr`; on miss the line is filled (evicting LRU). Returns
    /// whether the access hit.
    pub fn access(&mut self, addr: u32) -> bool {
        let (set, tag) = self.index(addr);
        let base = (set * self.ways) as usize;
        let slots = &mut self.tags[base..base + self.ways as usize];
        let hit_way = slots.iter().position(|&t| t == tag);
        let way = match hit_way {
            Some(w) => w,
            None => {
                // Choose invalid way first, else LRU (max age).
                let ages = &self.ages[base..base + self.ways as usize];
                let victim = slots
                    .iter()
                    .position(|&t| t == u32::MAX)
                    .unwrap_or_else(|| {
                        ages.iter()
                            .enumerate()
                            .max_by_key(|(_, &a)| a)
                            .map(|(i, _)| i)
                            .expect("nonzero ways")
                    });
                self.tags[base + victim] = tag;
                victim
            }
        };
        // Age update: touched line becomes 0, others in the set age by 1.
        for a in &mut self.ages[base..base + self.ways as usize] {
            *a = a.saturating_add(1);
        }
        self.ages[base + way] = 0;
        hit_way.is_some()
    }

    /// Whether `addr` is currently resident (no state change).
    pub fn contains(&self, addr: u32) -> bool {
        let (set, tag) = self.index(addr);
        let base = (set * self.ways) as usize;
        self.tags[base..base + self.ways as usize].contains(&tag)
    }
}

/// Counters produced by one hierarchy access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Latency in cycles until data is available.
    pub latency: u32,
    /// Whether L1 (I or D as appropriate) hit.
    pub l1_hit: bool,
    /// Whether the L2 was accessed and hit.
    pub l2_hit: bool,
    /// Whether the L3 was accessed and hit.
    pub l3_hit: bool,
    /// Whether main memory was reached.
    pub mem: bool,
}

/// The full cache hierarchy of one core: split L1, unified L2/L3.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    mem_latency: u32,
    /// Extra cycles added to L2 hits (bug 10 hook).
    pub l2_extra_latency: u32,
}

impl Hierarchy {
    /// Builds the hierarchy for a design.
    pub fn new(cfg: &MicroarchConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: cfg.l3.map(Cache::new),
            mem_latency: cfg.mem_latency_cycles(),
            l2_extra_latency: 0,
        }
    }

    fn beyond_l1(&mut self, addr: u32, mut outcome: AccessOutcome) -> AccessOutcome {
        if self.l2.access(addr) {
            outcome.l2_hit = true;
            outcome.latency = self.l2.latency() + self.l2_extra_latency;
            return outcome;
        }
        outcome.latency = self.l2.latency() + self.l2_extra_latency;
        if let Some(l3) = &mut self.l3 {
            if l3.access(addr) {
                outcome.l3_hit = true;
                outcome.latency = l3.latency();
                return outcome;
            }
            outcome.latency = l3.latency();
        }
        outcome.mem = true;
        outcome.latency = self.mem_latency;
        outcome
    }

    /// Data-side access (load or store) returning latency and per-level
    /// hit flags.
    pub fn access_data(&mut self, addr: u32) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        if self.l1d.access(addr) {
            outcome.l1_hit = true;
            outcome.latency = self.l1d.latency();
            return outcome;
        }
        self.beyond_l1(addr, outcome)
    }

    /// Instruction-side access returning latency and per-level hit flags.
    pub fn access_inst(&mut self, addr: u32) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        if self.l1i.access(addr) {
            outcome.l1_hit = true;
            outcome.latency = self.l1i.latency();
            return outcome;
        }
        self.beyond_l1(addr, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig {
            size: 512,
            assoc: 2,
            latency: 3,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny_cache();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1001)); // same line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny_cache();
        // Three lines mapping to the same set (set stride = 4 lines = 256B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU, b is LRU
        c.access(d); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn hierarchy_latency_ordering() {
        let cfg = crate::presets::skylake();
        let mut h = Hierarchy::new(&cfg);
        let first = h.access_data(0x4000_0000);
        assert!(first.mem, "cold access must reach memory");
        let second = h.access_data(0x4000_0000);
        assert!(second.l1_hit);
        assert!(second.latency < first.latency);
        assert_eq!(second.latency, cfg.l1d.latency);
    }

    #[test]
    fn l2_extra_latency_applies_on_l2_hits_only() {
        let cfg = crate::presets::skylake();
        let mut h = Hierarchy::new(&cfg);
        h.access_data(0x5000_0000); // fill everything
        let l1 = h.access_data(0x5000_0000);
        assert!(l1.l1_hit);

        let mut buggy = Hierarchy::new(&cfg);
        buggy.l2_extra_latency = 7;
        buggy.access_data(0x5000_0000);
        let l1b = buggy.access_data(0x5000_0000);
        assert_eq!(l1.latency, l1b.latency, "L1 hits unaffected by the L2 bug");
    }

    #[test]
    fn instruction_and_data_l1_are_split() {
        let cfg = crate::presets::skylake();
        let mut h = Hierarchy::new(&cfg);
        h.access_inst(0x1000_0000);
        let d = h.access_data(0x1000_0000);
        assert!(!d.l1_hit, "L1D must not hit on a line only in L1I");
        assert!(d.l2_hit, "but unified L2 holds it");
    }
}
