//! The what-if engine's one non-negotiable contract: after any
//! sequence of incremental edits, the spliced state is bit-for-bit the
//! state a from-scratch analysis of the edited circuit would produce.
//! Enforced here over random DAGs and sequential circuits, random edit
//! sequences (TMR, kind swap, input change), and 1 vs N threads.

use proptest::prelude::*;
use ser_suite::epp::{AnalysisSession, Edit, WhatIfAbort, WhatIfSession};
use ser_suite::gen::{lfsr, profile, s27, synthesize, RandomDag};
use ser_suite::netlist::{CancelToken, Circuit, GateKind, NodeId};
use ser_suite::sp::InputProbs;

/// Picks the `i`-th TMR-able gate (cyclically) — deterministic from
/// the raw pick, valid for any circuit with at least one logic gate.
fn pick_gate(c: &Circuit, raw: usize) -> Option<NodeId> {
    let gates: Vec<NodeId> = c
        .node_ids()
        .filter(|&id| c.node(id).kind().is_logic())
        .collect();
    if gates.is_empty() {
        None
    } else {
        Some(gates[raw % gates.len()])
    }
}

/// Decodes one raw `(op, pick, knob)` triple into an applicable edit.
fn decode_edit(c: &Circuit, op: u8, pick: usize, knob: u64) -> Option<Edit> {
    match op % 3 {
        0 => pick_gate(c, pick).map(Edit::Tmr),
        1 => {
            let node = pick_gate(c, pick)?;
            let kinds = [
                GateKind::And,
                GateKind::Or,
                GateKind::Nand,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
            ];
            let kind = kinds[knob as usize % kinds.len()];
            if kind.arity_ok(c.node(node).fanin().len()) {
                Some(Edit::SwapKind(node, kind))
            } else {
                None
            }
        }
        _ => {
            // A fresh assignment: new default plus one override on a
            // (cyclically) picked primary input.
            let default = 0.05 + (knob % 19) as f64 / 20.0;
            let inputs: Vec<NodeId> = c
                .node_ids()
                .filter(|&id| c.node(id).kind() == GateKind::Input)
                .collect();
            let mut probs = InputProbs::uniform(default);
            if !inputs.is_empty() {
                probs = probs.with(inputs[pick % inputs.len()], (knob % 7) as f64 / 8.0);
            }
            Some(Edit::SetInputs(probs))
        }
    }
}

/// Applies a raw edit script and checks the oracle after every step,
/// then unwinds via revert and checks the base state survived intact.
fn check_script(circuit: Circuit, script: &[(u8, usize, u64)], threads: usize) {
    let session = AnalysisSession::new(circuit).expect("base session compiles");
    let base_results = session.epp().sweep(threads, session.workspace_pool());
    let mut wf = WhatIfSession::new(session, threads);
    assert_eq!(
        *wf.results().as_ref(),
        base_results,
        "base cache equals a direct sweep"
    );

    let mut applied = 0usize;
    for &(op, pick, knob) in script {
        let Some(edit) = decode_edit(wf.circuit(), op, pick, knob) else {
            continue;
        };
        let before = wf.total_ser();
        let Ok(outcome) = wf.apply(edit) else {
            // Invalid for this circuit (e.g. re-TMR of a hardened gate
            // collides on replica names): the state must be untouched.
            assert_eq!(wf.total_ser().to_bits(), before.to_bits());
            continue;
        };
        applied += 1;
        assert_eq!(outcome.depth, wf.depth());
        assert_eq!(outcome.total_sites, wf.circuit().len());
        assert_eq!(
            outcome.dirty_sites,
            outcome.resweep_planned + outcome.resweep_reference,
            "every dirty site is re-swept in exactly one tier"
        );
        assert_eq!(outcome.deltas.len(), outcome.dirty_sites);

        let (full, full_total) = wf.full_recompute().expect("oracle compiles");
        assert_eq!(
            *wf.results().as_ref(),
            full,
            "incremental sweep differs from scratch after edit {applied}"
        );
        assert_eq!(
            wf.total_ser().to_bits(),
            full_total.to_bits(),
            "incremental total differs from scratch after edit {applied}"
        );
    }

    for _ in 0..applied {
        assert!(wf.revert().is_some());
    }
    assert!(wf.revert().is_none(), "base cannot be reverted");
    assert_eq!(
        *wf.results().as_ref(),
        base_results,
        "unwinding restores the base results bitwise"
    );
}

fn script_strategy() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    proptest::collection::vec((0u8..255, 0usize..64, 0u64..1_000), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random combinational DAGs, random edit scripts, single thread.
    #[test]
    fn whatif_matches_oracle_on_dags(
        (inputs, gates, reconv, seed) in (2usize..6, 4usize..24, 0.0f64..1.0, 0u64..500),
        script in script_strategy(),
    ) {
        let c = RandomDag::new(inputs, gates)
            .with_reconvergence(reconv)
            .build(seed);
        check_script(c, &script, 1);
    }

    /// Same contract under a multi-threaded sweep schedule.
    #[test]
    fn whatif_matches_oracle_multithreaded(
        (inputs, gates, seed) in (2usize..6, 4usize..24, 0u64..500),
        script in script_strategy(),
    ) {
        let c = RandomDag::new(inputs, gates).with_reconvergence(0.5).build(seed);
        check_script(c, &script, 4);
    }

    /// Sequential circuits: the SP leg falls back to the fixed-point
    /// scratch compute, and cones clip at flip-flops.
    #[test]
    fn whatif_matches_oracle_sequential(
        pick in 0usize..3,
        script in script_strategy(),
    ) {
        let taps: &[&[usize]] = &[&[1, 3], &[2, 5], &[1, 2, 4]];
        check_script(lfsr(taps[pick]), &script, 2);
    }
}

/// A deterministic end-to-end pass on s27 covering all three edit
/// kinds at depth 3 — the shape the service's advise loop produces.
#[test]
fn whatif_s27_all_edit_kinds_stacked() {
    let c = s27();
    let session = AnalysisSession::new(c).expect("s27 compiles");
    let mut wf = WhatIfSession::new(session, 2);

    let gate = pick_gate(wf.circuit(), 0).expect("s27 has gates");
    let gate_name = wf.circuit().node(gate).name().to_owned();
    let o1 = wf.apply(Edit::Tmr(gate)).expect("tmr applies");
    assert!(o1.dirty_sites > 0);
    assert_eq!(
        o1.deltas.iter().filter(|d| d.old_p.is_none()).count(),
        6,
        "one TMR edit introduces exactly 6 new sites (3 replicas + voter tree internals)"
    );
    assert!(
        wf.circuit().find(&format!("{gate_name}__r0")).is_some(),
        "replica gates exist in the edited circuit"
    );

    let swap_target = pick_gate(wf.circuit(), 3).expect("gates remain");
    let kind = if wf.circuit().node(swap_target).kind() == GateKind::And {
        GateKind::Or
    } else {
        GateKind::And
    };
    wf.apply(Edit::SwapKind(swap_target, kind))
        .expect("swap applies");
    wf.apply(Edit::SetInputs(InputProbs::uniform(0.25)))
        .expect("inputs apply");

    let (full, full_total) = wf.full_recompute().expect("oracle compiles");
    assert_eq!(*wf.results().as_ref(), full);
    assert_eq!(wf.total_ser().to_bits(), full_total.to_bits());
    assert_eq!(wf.depth(), 3);

    assert!(wf.revert().is_some());
    assert!(wf.revert().is_some());
    assert_eq!(wf.total_ser().to_bits(), o1.total.to_bits());

    // A fanout-free gate takes the sink-TMR splice (no cone walk): on
    // s27 and on a synthesized s953, it too must match the oracle.
    for c in [s27(), synthesize(&profile("s953").unwrap(), 1)] {
        let sink = c
            .node_ids()
            .find(|&id| c.node(id).kind().is_logic() && c.node(id).fanout().is_empty())
            .expect("a fanout-free gate");
        let mut wf = WhatIfSession::new(AnalysisSession::new(c).expect("compiles"), 2);
        wf.apply(Edit::Tmr(sink)).expect("tmr applies");
        let (full, full_total) = wf.full_recompute().expect("oracle compiles");
        assert_eq!(*wf.results().as_ref(), full);
        assert_eq!(wf.total_ser().to_bits(), full_total.to_bits());
    }
}

/// Asserts the current state equals a from-scratch analysis bitwise.
fn assert_matches_oracle(wf: &WhatIfSession) {
    let (full, full_total) = wf.full_recompute().expect("oracle compiles");
    assert_eq!(*wf.results().as_ref(), full);
    assert_eq!(wf.total_ser().to_bits(), full_total.to_bits());
}

/// A what-if session on a synthesized s1423, and the names of its two
/// top-ranked logic gates that have fanout (so TMR takes the general
/// path, not the sink-TMR splice).
fn s1423_with_top_gates() -> (WhatIfSession, [String; 2]) {
    let c = synthesize(&profile("s1423").unwrap(), 1);
    let wf = WhatIfSession::new(AnalysisSession::new(c).expect("compiles"), 1);
    let report = wf.report();
    let mut entries: Vec<_> = report
        .entries()
        .iter()
        .filter(|e| {
            let node = wf.circuit().node(e.node);
            node.kind().is_logic() && !node.fanout().is_empty()
        })
        .collect();
    entries.sort_by(|a, b| b.ser.total_cmp(&a.ser).then(a.node.cmp(&b.node)));
    let name = |i: usize| wf.circuit().node(entries[i].node).name().to_owned();
    let names = [name(0), name(1)];
    (wf, names)
}

/// Pins the re-sweep choice: a large dirty region re-sweeps on the
/// edited circuit's own plans, a small one on the reference kernel.
#[test]
fn whatif_resweeps_large_regions_on_the_edited_circuits_plans() {
    let (mut wf, names) = s1423_with_top_gates();
    let mut outcomes = Vec::new();
    for name in &names {
        let target = wf.circuit().find(name).expect("names survive TMR");
        outcomes.push(wf.apply(Edit::Tmr(target)).expect("tmr applies"));
        assert_matches_oracle(&wf);
    }
    let second = &outcomes[1];
    assert!(
        second.dirty_sites * 8 >= second.total_sites,
        "a top-ranked TMR dirties at least 1/8 of s1423: {second:?}"
    );
    assert_eq!(second.resweep_reference, 0, "compiled and swept on plans");
    assert_eq!(second.resweep_planned, second.dirty_sites);

    // Back on the first edit's state, whose plans the second push
    // released: on this instance a TMR of G75 (signal probability 1,
    // which the voter reproduces) dirties little more than G75's
    // fan-in, too little to pay for a compile.
    wf.revert().expect("one edit to pop");
    let g75 = wf.circuit().find("G75").expect("s1423 seed 1 has G75");
    let small = wf.apply(Edit::Tmr(g75)).expect("tmr applies");
    assert!(small.dirty_sites > 0 && small.dirty_sites * 8 < small.total_sites);
    assert_eq!(small.resweep_planned, 0, "no compile for a small region");
    assert_eq!(small.resweep_reference, small.dirty_sites);
    assert_matches_oracle(&wf);
}

/// A tripped token aborts an apply at depth ≥ 1 without touching the
/// stack, and the same edit then applies cleanly: the aborted attempt
/// left no half-built plans behind.
#[test]
fn whatif_cancelled_apply_leaves_the_stack_untouched() {
    let (mut wf, names) = s1423_with_top_gates();
    let first = wf.circuit().find(&names[0]).unwrap();
    wf.apply(Edit::Tmr(first)).expect("tmr applies");
    let (depth, total, results) = (wf.depth(), wf.total_ser(), wf.results().clone());

    let second = wf.circuit().find(&names[1]).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let aborted = wf.apply_cancellable(Edit::Tmr(second), Some(&token));
    assert!(
        matches!(aborted, Err(WhatIfAbort::Cancelled(_))),
        "{aborted:?}"
    );
    assert_eq!(wf.depth(), depth);
    assert_eq!(wf.total_ser().to_bits(), total.to_bits());
    assert_eq!(*wf.results().as_ref(), *results);

    wf.apply(Edit::Tmr(second)).expect("tmr applies");
    assert_eq!(wf.depth(), depth + 1);
    assert_matches_oracle(&wf);
}
