//! Property-based tests (proptest) over the core data structures and the
//! invariants the fuzzing loop depends on.

use std::collections::HashSet;
use std::sync::Arc;

use torpedo_prop::prelude::*;
use torpedo_rng::rngs::StdRng;
use torpedo_rng::{Rng, SeedableRng};

use torpedo_core::batch::{BatchAction, BatchConfig, BatchMachine};
use torpedo_kernel::cgroup::{CgroupError, CgroupId, CgroupLimits, CgroupTree};
use torpedo_kernel::cpu::{CpuCategory, CpuTimes};
use torpedo_kernel::syscalls::fallback_signal;
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
    /// random trees with quotas at random depths, after random removals.
    #[test]
    fn cgroup_budget_matches_the_ancestor_walk(seed in any::<u64>(), size in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = CgroupTree::new();
        let mut ids = vec![CgroupTree::ROOT];
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
        let window = Usecs::from_secs(5);
        for g in tree.iter() {
            let walked = quota_by_walk(&tree, g.id());
            prop_assert_eq!(tree.effective_cpu_quota(g.id()), walked);
            prop_assert_eq!(
                tree.remaining_cpu_budget(g.id(), window),
                walked.map(|q| window.scale(q).saturating_sub(g.charged_cpu()))
            );
        }
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
