//! Fuzz the wire protocol's request parser and the JSON model under it.
//!
//! The daemon feeds arbitrary client bytes straight into
//! `Request::parse` (and so `Json::parse`); a panic there kills a
//! connection thread, so the first property is *total-ness*: every
//! mutation of a real request line — byte flips, deletions, insertions,
//! truncations, stacked in any combination — comes back as `Ok` or as an
//! error message, never a panic. The second is the writer/parser round
//! trip: `Json::parse(t.serialize())` rebuilds any tree `t` (in the form
//! the parser produces) exactly, across `u64` extremes, NaN/±Inf, `-0.0`,
//! non-BMP characters and control characters.

use ants_bench::{Effort, GateThresholds};
use ants_serve::{Op, Request};
use ants_sim::json::Json;
use proptest::collection::vec;
use proptest::prelude::*;

/// Realistic corpus: every bundled workload spec, so request lines carry
/// long multi-line strings full of quotes and escapes.
const SPECS: &[&str] = &[
    include_str!("../../../examples/workloads/adversarial_battery.toml"),
    include_str!("../../../examples/workloads/chi_tradeoff_zoo.toml"),
    include_str!("../../../examples/workloads/coverage_lower_bound.toml"),
    include_str!("../../../examples/workloads/dp_crosscheck.toml"),
    include_str!("../../../examples/workloads/mixed_targets.toml"),
    include_str!("../../../examples/workloads/speculation_stress.toml"),
];

fn request(spec_idx: usize, seed: u64) -> Request {
    let mut req = Request::submit(SPECS[spec_idx]);
    req.op = if seed.is_multiple_of(2) { Op::Submit } else { Op::Gate };
    req.effort = Effort::Smoke;
    req.seed = seed;
    req.thresholds = Some(GateThresholds { metric_rel_tol: 0.1, ..GateThresholds::default() });
    req
}

/// Apply one mutation; `pos` is reduced modulo the current length so
/// stacked mutations stay in range as the text shrinks and grows.
fn mutate(text: String, op: u8, pos: usize, byte: u8) -> String {
    let mut bytes = text.into_bytes();
    if bytes.is_empty() {
        return String::new();
    }
    let pos = pos % bytes.len();
    match op % 4 {
        0 => bytes[pos] = byte,
        1 => {
            bytes.remove(pos);
        }
        2 => bytes.insert(pos, byte),
        _ => bytes.truncate(pos),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A stream of draws the tree builder consumes (zeros once exhausted).
struct Tape(std::vec::IntoIter<u64>);

impl Tape {
    fn next(&mut self) -> u64 {
        self.0.next().unwrap_or(0)
    }
}

const INTS: [u64; 6] = [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX, 1 << 63];
const FLOATS: [f64; 10] =
    [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.5, 0.1, 3.0, 1e300, f64::MAX, -5e-324];
const CHARS: [char; 12] =
    ['a', '"', '\\', '/', '\n', '\u{0}', '\u{1f}', '\u{7f}', 'é', '\u{ffff}', '🐜', '\u{10ffff}'];

fn string(tape: &mut Tape) -> String {
    let draw = tape.next();
    if draw.is_multiple_of(7) {
        return ["NaN", "Inf", "-Inf"][(draw / 7 % 3) as usize].to_string();
    }
    (0..draw % 9).map(|_| CHARS[(tape.next() % CHARS.len() as u64) as usize]).collect()
}

fn tree(tape: &mut Tape, depth: u32) -> Json {
    let draw = tape.next();
    let kinds = if depth == 0 { 6 } else { 8 };
    let len = (draw >> 8) % 4;
    match draw % kinds {
        0 => Json::Null,
        1 => Json::Bool(draw & 0x100 != 0),
        2 if draw & 0x100 == 0 => Json::Int(INTS[(tape.next() % INTS.len() as u64) as usize]),
        2 => Json::Int(tape.next()),
        3 if draw & 0x100 == 0 => Json::Num(FLOATS[(tape.next() % FLOATS.len() as u64) as usize]),
        3 => Json::Num(f64::from_bits(tape.next())),
        4 | 5 => Json::Str(string(tape)),
        6 => Json::Arr((0..len).map(|_| tree(tape, depth - 1)).collect()),
        _ => Json::Obj((0..len).map(|_| (string(tape), tree(tape, depth - 1))).collect()),
    }
}

/// The tree the parser rebuilds from `t.serialize()`: non-finite floats
/// become their string sentinels, and integral floats in `u64` range
/// (except `-0`) become exact integers. Everything else is unchanged.
fn canonical(t: &Json) -> Json {
    match t {
        Json::Num(x) if !x.is_finite() => Json::parse(&t.serialize()).unwrap(),
        Json::Num(x) if x.is_sign_positive() && x.fract() == 0.0 && *x < 2f64.powi(64) => {
            Json::Int(*x as u64)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(canonical).collect()),
        Json::Obj(fields) => {
            Json::Obj(fields.iter().map(|(k, v)| (k.clone(), canonical(v))).collect())
        }
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn mutated_requests_never_panic(
        spec_idx in 0usize..SPECS.len(),
        seed in any::<u64>(),
        edits in vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..5),
    ) {
        let mut line = request(spec_idx, seed).to_json();
        for (op, pos, byte) in edits {
            line = mutate(line, op, pos, byte);
        }
        let _ = Json::parse(&line);
        if let Ok(req) = Request::parse(&line) {
            let needs_spec = matches!(req.op, Op::Submit | Op::Gate);
            prop_assert!(!needs_spec || !req.spec.is_empty(), "accepted an empty spec: {line}");
        }
    }

    /// The unmutated corpus round-trips, exact seed included, so the
    /// mutations above start from lines the daemon really accepts.
    #[test]
    fn bundled_requests_round_trip(spec_idx in 0usize..SPECS.len(), seed in any::<u64>()) {
        let req = request(spec_idx, seed);
        let back = Request::parse(&req.to_json());
        prop_assert!(back.is_ok(), "corpus entry {spec_idx} failed: {:?}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(back.seed, seed);
        prop_assert_eq!(back.spec, req.spec);
        prop_assert_eq!(back.op, req.op);
    }

    #[test]
    fn trees_round_trip_through_the_writer(draws in vec(any::<u64>(), 1..96)) {
        let t = tree(&mut Tape(draws.into_iter()), 4);
        let c = canonical(&t);
        prop_assert_eq!(Json::parse(&c.serialize()), Ok(c.clone()));
        prop_assert_eq!(Json::parse(&t.serialize()), Ok(c));
    }
}
