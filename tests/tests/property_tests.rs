//! Property-based tests (proptest) over the core data structures and the
//! invariants the fuzzing loop depends on.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use torpedo_prop::prelude::*;
use torpedo_rng::rngs::StdRng;
use torpedo_rng::{Rng, RngCore, SeedableRng};

use torpedo_core::batch::{BatchAction, BatchConfig, BatchMachine};
use torpedo_kernel::cgroup::{CgroupError, CgroupId, CgroupLimits, CgroupTree};
use torpedo_kernel::cpu::{CpuCategory, CpuTimes};
use torpedo_kernel::syscalls::fallback_signal;
use torpedo_kernel::vfs::{Fd, FdObject, FdTable};
use torpedo_kernel::{Errno, Usecs};
use torpedo_prog::{
    build_table, deserialize, gen_program, minimize, serialize, Corpus, CorpusItem, Mutator,
    Program,
};

proptest! {
    /// Generated programs always validate, and serialization round-trips.
    #[test]
    fn generated_programs_round_trip(seed in any::<u64>(), max_len in 1usize..12) {
        let table = build_table();
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = gen_program(&table, max_len, &HashSet::new(), &mut rng);
        prop_assert!(prog.validate(&table).is_ok());
        let text = serialize(&prog, &table);
        let back = deserialize(&text, &table).unwrap();
        prop_assert_eq!(prog, back);
    }

    /// Any sequence of mutations preserves structural validity.
    #[test]
    fn mutation_chains_preserve_validity(seed in any::<u64>(), steps in 1usize..30) {
        mutation_chain_stays_valid(seed, steps);
    }

    /// Minimization never grows a program and the result still satisfies
    /// the predicate (when the original did).
    #[test]
    fn minimize_shrinks_and_preserves(seed in any::<u64>()) {
        let table = build_table();
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = gen_program(&table, 10, &HashSet::new(), &mut rng);
        let target = prog.calls[0].desc;
        let pred = |p: &Program| p.calls.iter().any(|c| c.desc == target);
        prop_assume!(pred(&prog));
        let mut shrunk = prog.clone();
        minimize(&mut shrunk, pred);
        prop_assert!(shrunk.len() <= prog.len());
        prop_assert!(pred(&shrunk));
        prop_assert!(shrunk.validate(&table).is_ok());
    }

    /// CpuTimes: busy + idle == total, diff is the inverse of merge.
    #[test]
    fn cputimes_algebra(values in torpedo_prop::collection::vec(0u64..1_000_000, 10)) {
        let mut t = CpuTimes::default();
        for (cat, v) in CpuCategory::ALL.into_iter().zip(&values) {
            t.charge(cat, Usecs(*v));
        }
        prop_assert_eq!(t.busy() + t.idle, t.total());
        let merged = t.merged(&t);
        let back = merged.since(&t);
        prop_assert_eq!(back, t);
    }

    /// The fallback signal distinguishes syscalls and errnos: distinct
    /// (nr, errno) pairs from the realistic range never collide.
    #[test]
    fn fallback_signal_is_injective_over_realistic_inputs(
        nrs in torpedo_prop::collection::hash_set(0u32..512, 2..20),
    ) {
        let errnos = [None, Some(Errno::EINVAL), Some(Errno::ENOSYS), Some(Errno::EAFNOSUPPORT)];
        let mut seen = std::collections::HashMap::new();
        for nr in nrs {
            for e in errnos {
                let sig = fallback_signal(nr, e);
                if let Some(prev) = seen.insert(sig, (nr, e)) {
                    prop_assert_eq!(prev, (nr, e), "collision at {}", sig);
                }
            }
        }
    }

    /// Usecs scaling is monotone and never panics for sane factors.
    #[test]
    fn usecs_scale_monotone(a in 0u64..u32::MAX as u64, f1 in 0.0f64..3.0, f2 in 0.0f64..3.0) {
        let u = Usecs(a);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(u.scale(lo) <= u.scale(hi).saturating_add(Usecs(1)));
    }

    /// Copy-on-write program handles are observationally equal to the old
    /// deep-copy path: a batch whose `Arc<Program>`s are aliased by the
    /// corpus (donor selection) and the machine's save/restore snapshot
    /// serializes byte-identically, round for round, to a twin batch where
    /// every handle is unique (refcount 1, so `Arc::make_mut` mutates in
    /// place exactly like the old owned `Vec<Program>`). Also checks the
    /// aliased corpus donors never absorb a batch mutation.
    #[test]
    fn cow_programs_match_deep_copy_path(
        seed in any::<u64>(),
        scores in torpedo_prop::collection::vec(0.0f64..60.0, 1..25),
    ) {
        let table = build_table();
        let mut gen_rng = StdRng::seed_from_u64(seed);
        let initial: Vec<Program> =
            (0..3).map(|_| gen_program(&table, 6, &HashSet::new(), &mut gen_rng)).collect();

        // Shared path: batch, corpus and machine snapshot alias the same Arcs.
        let shared: Vec<Arc<Program>> = initial.iter().map(|p| Arc::new(p.clone())).collect();
        let mut corpus_shared = Corpus::new();
        for p in &shared {
            corpus_shared.add(CorpusItem {
                program: Arc::clone(p),
                new_signals: 1,
                best_score: 0.0,
                flagged: false,
            });
        }
        let mut progs_shared = shared.clone();
        let mut m_shared = BatchMachine::new(BatchConfig::default(), &progs_shared);

        // Deep path: every handle unique — `Arc::make_mut` then mutates in
        // place, which is exactly what the pre-Arc deep-copy code did.
        let mut corpus_deep = Corpus::new();
        for p in &initial {
            corpus_deep.add(CorpusItem {
                program: Arc::new(p.clone()),
                new_signals: 1,
                best_score: 0.0,
                flagged: false,
            });
        }
        let mut progs_deep: Vec<Arc<Program>> =
            initial.iter().map(|p| Arc::new(p.clone())).collect();
        let mut m_deep = BatchMachine::new(BatchConfig::default(), &progs_deep);

        let mut rng_s = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut rng_d = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mutator = Mutator::default();
        for (i, score) in scores.iter().enumerate() {
            let (_, act_s) = m_shared.on_round(*score, &mut progs_shared, &mut rng_s);
            let (_, act_d) = m_deep.on_round(*score, &mut progs_deep, &mut rng_d);
            prop_assert_eq!(act_s, act_d);
            if act_s == BatchAction::Stop {
                break;
            }
            if act_s == BatchAction::MutateAndRun {
                let pick = (i as f64 * 0.137) % 1.0;
                let donor_s = corpus_shared.donor(pick).cloned();
                let donor_d = corpus_deep.donor(pick).cloned();
                mutator.mutate(Arc::make_mut(&mut progs_shared[0]), &table, donor_s.as_deref(), &mut rng_s);
                mutator.mutate(Arc::make_mut(&mut progs_deep[0]), &table, donor_d.as_deref(), &mut rng_d);
            }
            for (a, b) in progs_shared.iter().zip(&progs_deep) {
                prop_assert_eq!(serialize(a, &table), serialize(b, &table));
            }
            // The aliased donors must still serialize as the originals:
            // copy-on-write may never leak a batch mutation into the corpus.
            for (item, orig) in corpus_shared.items().iter().zip(&initial) {
                prop_assert_eq!(serialize(&item.program, &table), serialize(orig, &table));
            }
        }
    }

    /// remove_call never leaves dangling forward references.
    #[test]
    fn remove_call_preserves_invariants(seed in any::<u64>(), removals in 1usize..6) {
        let table = build_table();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prog = gen_program(&table, 10, &HashSet::new(), &mut rng);
        for _ in 0..removals {
            if prog.len() <= 1 {
                break;
            }
            let idx = (seed as usize) % prog.len();
            prog.remove_call(idx);
            prop_assert!(prog.validate(&table).is_ok());
        }
    }

    /// Each cgroup's stored quota equals the ancestor walk it replaced, for
    /// random trees with quotas at random depths, after random removals,
    /// and each stored CPU budget follows every new window, including one
    /// set before a group was created.
    #[test]
    fn cgroup_budget_matches_the_ancestor_walk(seed in any::<u64>(), size in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = CgroupTree::new();
        let mut ids = vec![CgroupTree::ROOT];
        // The window outside a round, or one set before any group exists.
        let mut first = Usecs(u64::MAX / 4);
        if rng.gen_bool(0.5) {
            first = Usecs(rng.gen_range(1..60_000_000));
            tree.set_window(first);
        }
        for i in 0..size {
            let parent = ids[rng.gen_range(0..ids.len())];
            let limits = CgroupLimits {
                cpu_quota_cores: rng.gen_bool(0.5).then(|| rng.gen_range(0.05..8.0)),
                ..CgroupLimits::default()
            };
            let id = tree.create(parent, &format!("g{i}"), limits).unwrap();
            tree.charge_cpu(id, Usecs(rng.gen_range(0..8_000_000)));
            ids.push(id);
        }
        for _ in 0..size / 2 {
            let victim = ids[rng.gen_range(1..ids.len())];
            let has_children = tree.iter().any(|g| g.parent() == Some(victim));
            match tree.remove(victim) {
                Ok(()) => ids.retain(|&id| id != victim),
                Err(err) => prop_assert_eq!(err, CgroupError::Busy(victim)),
            }
            prop_assert_eq!(tree.get(victim).is_some(), has_children);
        }
        let windows = [
            first,
            Usecs::from_secs(5),
            Usecs(rng.gen_range(1..60_000_000)),
            Usecs(u64::MAX / 4),
            Usecs::from_secs(5),
        ];
        for window in windows {
            tree.set_window(window);
            for _ in 0..3 {
                let id = ids[rng.gen_range(0..ids.len())];
                tree.charge_cpu(id, Usecs(rng.gen_range(0..4_000_000)));
            }
            for g in tree.iter() {
                let walked = quota_by_walk(&tree, g.id());
                prop_assert_eq!(tree.effective_cpu_quota(g.id()), walked);
                prop_assert_eq!(
                    tree.remaining_cpu_budget(g.id()),
                    walked.map(|q| scale_by_float(window, q).saturating_sub(g.charged_cpu()))
                );
            }
        }
    }

    /// `Usecs::scale` equals the float formula it replaced: random
    /// magnitudes, exact `.5` ties, the neighbourhoods of 2^52, 2^53, 2^63,
    /// 2^64 and of the window used outside a round, scaled by zero, one,
    /// quota fractions, runtime overheads and random factors.
    #[test]
    fn usecs_scale_matches_the_float_formula(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let (value, factor) = scale_case(&mut rng);
            prop_assert_eq!(
                Usecs(value).scale(factor),
                scale_by_float(Usecs(value), factor),
                "{} x {}",
                value,
                factor
            );
        }
    }

    /// The slot-backed `FdTable` agrees with a `BTreeMap` model under
    /// random `alloc`/`get`/`get_mut`/`close`/`close_all` sequences that
    /// probe negative and huge fds and hit `EMFILE` at small limits.
    #[test]
    fn fd_table_matches_a_map_model(seed in any::<u64>(), steps in 1usize..160) {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = if rng.gen_bool(0.5) { rng.gen_range(3u32..12) } else { 1024 };
        let mut table = FdTable::new();
        let mut model: BTreeMap<i32, FdObject> = BTreeMap::new();
        let mut next_fd = 3;
        for _ in 0..steps {
            let probe = match rng.gen_range(0..4) {
                0 => rng.gen_range(-4..next_fd + 4),
                1 => -rng.gen_range(1..i32::MAX),
                2 => i32::MAX - rng.gen_range(0..4),
                _ => rng.gen_range(0..next_fd.max(1)),
            };
            match rng.gen_range(0..10) {
                0..=3 => {
                    let obj = match rng.gen_range(0..4) {
                        0 => FdObject::File { ino: rng.gen_range(1..64), offset: 0 },
                        1 => FdObject::Inotify,
                        2 => FdObject::Socket { audit: rng.gen_bool(0.5) },
                        _ => FdObject::PipeEnd,
                    };
                    let expected = if model.len() as u32 + 3 >= limit {
                        Err(Errno::EMFILE)
                    } else {
                        model.insert(next_fd, obj.clone());
                        next_fd += 1;
                        Ok(Fd(next_fd - 1))
                    };
                    prop_assert_eq!(table.alloc(obj, limit), expected);
                }
                4 | 5 => prop_assert_eq!(table.get(Fd(probe)), model.get(&probe)),
                6 => {
                    if let Some(FdObject::File { offset, .. }) = table.get_mut(Fd(probe)) {
                        *offset += 1;
                    }
                    if let Some(FdObject::File { offset, .. }) = model.get_mut(&probe) {
                        *offset += 1;
                    }
                }
                7 | 8 => prop_assert_eq!(
                    table.close(Fd(probe)),
                    model.remove(&probe).map(|_| ()).ok_or(Errno::EBADF)
                ),
                _ => {
                    table.close_all();
                    model.clear();
                    next_fd = 3;
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
        }
        for fd in -4..next_fd + 4 {
            prop_assert_eq!(table.get(Fd(fd)), model.get(&fd));
        }
    }
}

/// The float formula `Usecs::scale` replaced, kept as its reference.
fn scale_by_float(value: Usecs, factor: f64) -> Usecs {
    Usecs((value.0 as f64 * factor).round() as u64)
}

/// One `(value, factor)` pair for the `Usecs::scale` property.
fn scale_case(rng: &mut StdRng) -> (u64, f64) {
    // Factors the kernel scales by: zero and one, noise and glue
    // fractions, runtime overheads (runC, Kata, gVisor) and their squares.
    const FACTORS: [f64; 16] = [
        0.0, 1.0, 0.001, 0.002, 0.004, 0.005, 0.2, 0.3, 0.5, 0.55, 0.6, 1.35, 1.8225, 2.2, 4.84,
        6.0,
    ];
    match rng.gen_range(0..4) {
        // Random magnitudes by random factors.
        0 => {
            let value = rng.next_u64() >> rng.gen_range(0u32..64);
            let factor = match rng.gen_range(0..4) {
                0 => FACTORS[rng.gen_range(0..FACTORS.len())],
                // A cgroup quota, or a quota clamp ratio.
                1 => rng.gen_range(0.05..8.0),
                2 => rng.gen_range(0.0..1.0),
                _ => rng.gen_range(0.0..1e6),
            };
            (value, factor)
        }
        // Exact ties: an odd value times an odd number of halves, or a
        // value of 2 mod 4 times a quarter; every product is exact.
        1 => {
            let odd = (rng.next_u64() >> rng.gen_range(16u32..64)) | 1;
            if rng.gen_bool(0.5) {
                (odd, f64::from(2 * rng.gen_range(0u32..8) + 1) / 2.0)
            } else {
                ((odd >> 1) * 4 + 2, 0.25)
            }
        }
        // The edges of f64 precision and of u64, by the kernel's factors.
        2 => {
            let anchors = [1u64 << 52, 1 << 53, 1 << 63, u64::MAX, u64::MAX / 4];
            let anchor = anchors[rng.gen_range(0..anchors.len())];
            let value = anchor
                .saturating_sub(32)
                .saturating_add(rng.gen_range(0..64));
            (value, FACTORS[rng.gen_range(0..FACTORS.len())])
        }
        // Small values, where the kernel's microsecond costs live.
        _ => (
            rng.gen_range(0..100_000),
            FACTORS[rng.gen_range(0..FACTORS.len())] * rng.gen_range(0.4..1.6),
        ),
    }
}

/// The ancestor walk `CgroupTree` stored quotas replaced: the minimum
/// `cpu_quota_cores` from `id` up to the root, `None` if no group on the
/// way sets one.
fn quota_by_walk(tree: &CgroupTree, id: CgroupId) -> Option<f64> {
    let mut quota: Option<f64> = None;
    let mut cur = tree.get(id);
    while let Some(g) = cur {
        if let Some(q) = g.limits().cpu_quota_cores {
            quota = Some(quota.map_or(q, |existing| existing.min(q)));
        }
        cur = g.parent().and_then(|p| tree.get(p));
    }
    quota
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernel rounds conserve core time for arbitrary single-program
    /// workloads drawn from the seed generator (slow: fewer cases).
    #[test]
    fn rounds_conserve_time_for_arbitrary_seeds(seed in any::<u64>()) {
        let table = build_table();
        let texts = torpedo_moonshine::generate_corpus(3, seed);
        let mut observer = torpedo_integration_tests::observer(1, "runc", 1);
        for text in &texts {
            let prog = deserialize(text, &table).unwrap();
            let rec = observer.round(&table, std::slice::from_ref(&prog)).unwrap();
            for row in &rec.observation.per_core {
                prop_assert_eq!(row.total(), Usecs::from_secs(1));
            }
        }
    }
}

/// Mutate a generated program `steps` times from `seed`, checking validity
/// after every step.
fn mutation_chain_stays_valid(seed: u64, steps: usize) {
    let table = build_table();
    let mut rng = StdRng::seed_from_u64(seed);
    let mutator = Mutator::default();
    let donor = gen_program(&table, 8, &HashSet::new(), &mut rng);
    let mut prog = gen_program(&table, 8, &HashSet::new(), &mut rng);
    for _ in 0..steps {
        mutator.mutate(&mut prog, &table, Some(&donor), &mut rng);
        assert!(prog.validate(&table).is_ok(), "after mutation: {prog:?}");
    }
}

/// A mutation chain a past property run once failed on.
#[test]
fn mutation_chain_seed_2034474312397021814_steps_8_stays_valid() {
    mutation_chain_stays_valid(2034474312397021814, 8);
}
