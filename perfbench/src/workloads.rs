//! The four workloads: which request lines each sends, in which order,
//! and over how many connections — all generated from the `--seed`
//! argument. The daemon only ever sees the generated lines. Every
//! workload is driven closed loop (see `loadgen`).
//!
//! Every workload is built from *rounds*: a round is a fixed multiset of
//! request shapes, shuffled per round by the seed. A run always ends on a
//! round boundary, so the work mix — and with it every cost per request —
//! is the same whatever the seed and however long the run.

use crate::util::Rng;

/// The fixed express placements the simulation workloads run on: the
/// per-row solutions of the 8×8 and 16×16 `C = 4` design points (maximum
/// cross-section 4, so the link budget gives them 64-bit flits).
pub const P8: &[(usize, usize)] = &[(0, 2), (0, 3), (1, 3), (2, 6), (3, 5), (3, 7), (5, 7)];
pub const P16: &[(usize, usize)] = &[
    (0, 2),
    (0, 4),
    (1, 4),
    (2, 4),
    (4, 6),
    (4, 7),
    (4, 10),
    (6, 10),
    (7, 9),
    (10, 12),
    (10, 13),
    (10, 15),
    (13, 15),
];

/// Daemon cache capacity every workload runs with. The `cache_replay`
/// working set is far below it (and below an eighth of it, the capacity
/// of one of the daemon's eight shards).
pub const CACHE_CAPACITY: usize = 256;

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: String,
    pub kind: &'static str,
    pub line: String,
}

/// A workload: its request shapes and how they are driven.
pub struct Workload {
    pub name: &'static str,
    pub connections: usize,
    /// Percentile reported as `latency_tail_ms`.
    pub tail_q: f64,
    /// Cache priming set (`cache_replay` only): sent once, in order, as
    /// part of set-up.
    pub prime: Vec<Request>,
    seed: u64,
    shapes: usize,
    build: fn(&Workload, usize, u64, usize) -> Request,
}

pub const NAMES: [&str; 4] = [
    "design_flow",
    "sim_latency",
    "saturation_sweep",
    "cache_replay",
];

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        // Compute workloads run closed loop on one connection: see README.md
        // ("Why one connection") for the spread other forms had on a shared
        // 2-vCPU host.
        let base = Workload {
            name: "",
            connections: 1,
            tail_q: 0.95,
            prime: Vec::new(),
            seed,
            shapes: 0,
            build: design_flow_request,
        };
        Some(match name {
            "design_flow" => Workload {
                name: "design_flow",
                tail_q: 0.99,
                shapes: DESIGN_FLOW_SHAPES,
                build: design_flow_request,
                ..base
            },
            "sim_latency" => Workload {
                name: "sim_latency",
                tail_q: 0.90,
                shapes: SIM_SHAPES.len(),
                build: sim_request,
                ..base
            },
            "saturation_sweep" => Workload {
                name: "saturation_sweep",
                tail_q: 0.75,
                shapes: SWEEP_SHAPES.len(),
                build: throughput_request,
                ..base
            },
            // Two connections keep both cores busy: with one, every round
            // trip waits for an idle core to wake, which on a virtual
            // machine costs more than the hit itself and varies run to run.
            "cache_replay" => {
                let prime = working_set();
                Workload {
                    name: "cache_replay",
                    connections: 2,
                    tail_q: 0.99,
                    shapes: prime.len(),
                    prime,
                    build: replay_request,
                    ..base
                }
            }
            _ => return None,
        })
    }

    /// Requests per round.
    pub fn round_len(&self) -> usize {
        self.shapes
    }

    /// The `i`-th request of the run: round `i / round_len`, in that
    /// round's seeded order. Seeds inside requests are distinct per `i`,
    /// so no two requests of a compute workload share a cache key.
    pub fn request(&self, i: usize) -> Request {
        let round = i / self.shapes;
        let mut order: Vec<usize> = (0..self.shapes).collect();
        Rng::new(self.seed.wrapping_mul(0x100_0000_01b3) ^ round as u64).shuffle(&mut order);
        let shape = order[i % self.shapes];
        let unique = (self.seed % 1_000_003) * 1_000_000 + i as u64;
        (self.build)(self, shape, unique, round)
    }
}

/// `design_flow`: the paper's placement flow. Each round holds eleven
/// `solve`s at the paper budget (`m = 10⁴`, D&C start) over admissible
/// and Fig. 12 link limits for n ∈ {8, 16, 32}, one 8×8 `sweep`, one
/// small `frontier` and one `optimal`.
const DESIGN_FLOW_SOLVES: [(usize, usize); 11] = [
    (8, 2),
    (8, 3),
    (8, 4),
    (8, 8),
    (16, 2),
    (16, 4),
    (16, 8),
    (16, 16),
    (32, 2),
    (32, 4),
    (32, 8),
];
const DESIGN_FLOW_SHAPES: usize = DESIGN_FLOW_SOLVES.len() + 3;

fn design_flow_request(_: &Workload, shape: usize, unique: u64, round: usize) -> Request {
    let id = format!("d{unique}");
    if let Some(&(n, c)) = DESIGN_FLOW_SOLVES.get(shape) {
        return Request {
            line: format!(
                r#"{{"id":"{id}","kind":"solve","n":{n},"c":{c},"strategy":"dnc","moves":10000,"seed":{unique}}}"#
            ),
            id,
            kind: "solve",
        };
    }
    match shape - DESIGN_FLOW_SOLVES.len() {
        0 => Request {
            line: format!(
                r#"{{"id":"{id}","kind":"sweep","n":8,"base_flit":256,"seed":{unique}}}"#
            ),
            id,
            kind: "sweep",
        },
        1 => Request {
            line: format!(
                r#"{{"id":"{id}","kind":"frontier","n":8,"base_flit":256,"weight_steps":3,"moves":2000,"seed":{unique},"workers":1}}"#
            ),
            id,
            kind: "frontier",
        },
        _ => {
            // `optimal` has no seed; distinct hop weights per round keep
            // every request a cache miss. The weight sequence is the same
            // for every seed, so the branch-and-bound work is too.
            let c = 2 + round % 2;
            let router_cycles = 2 + round / 2;
            Request {
                line: format!(
                    r#"{{"id":"{id}","kind":"optimal","n":8,"c":{c},"router_cycles":{router_cycles},"unit_link_cycles":1}}"#
                ),
                id,
                kind: "optimal",
            }
        }
    }
}

/// One `simulate` shape: side, express links, pattern, rate, flit width,
/// measured cycles. Cycle counts are chosen so every shape costs about
/// the same, which keeps the latency distribution single-peaked.
type SimShape = (
    usize,
    &'static [(usize, usize)],
    &'static str,
    f64,
    u32,
    u64,
);
pub const SIM_SHAPES: [SimShape; 8] = [
    (8, &[], "ur", 0.02, 256, 20_000),
    (8, &[], "tp", 0.02, 256, 20_000),
    (8, &[], "hs", 0.01, 256, 40_000),
    (8, &[], "nn", 0.04, 256, 28_000),
    (8, P8, "ur", 0.02, 64, 13_000),
    (8, P8, "tp", 0.02, 64, 13_000),
    (16, &[], "ur", 0.005, 256, 3_000),
    (16, P16, "ur", 0.005, 64, 2_500),
];

pub fn links_json(links: &[(usize, usize)]) -> String {
    let parts: Vec<String> = links.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
    format!("[{}]", parts.join(","))
}

fn sim_request(_: &Workload, shape: usize, unique: u64, _: usize) -> Request {
    let (n, links, pattern, rate, flit, cycles) = SIM_SHAPES[shape];
    let id = format!("s{unique}");
    Request {
        line: format!(
            r#"{{"id":"{id}","kind":"simulate","n":{n},"pattern":"{pattern}","rate":{rate},"flit":{flit},"cycles":{cycles},"seed":{unique},"links":{}}}"#,
            links_json(links)
        ),
        id,
        kind: "simulate",
    }
}

/// One `throughput` shape: express links, pattern, start rate, flit
/// width. Start rates sit a few ladder steps below each knee so the first
/// wave of the sweep already crosses it. A uniform-random sweep costs
/// about twice a transpose one (2.2–2.8 s against 1.1–1.2 s alone on
/// the reference host), so each round holds them 2 : 1: the median then
/// falls inside the mesh uniform-random cluster and the 75th percentile
/// inside the express one, rather than on a gap between clusters.
type SweepShape = (&'static [(usize, usize)], &'static str, f64, u32);
pub const SWEEP_SHAPES: [SweepShape; 6] = [
    (&[], "ur", 0.16, 256),
    (&[], "ur", 0.16, 256),
    (&[], "tp", 0.08, 256),
    (P8, "ur", 0.13, 64),
    (P8, "ur", 0.13, 64),
    (P8, "tp", 0.05, 64),
];

/// Lockstep lanes per sweep pass. With the default sweep worker count
/// (one per core) a wave is `workers × lanes` ladder points; two lanes
/// keep the speculative tail of each wave short.
pub const SWEEP_LANES: usize = 2;

fn throughput_request(_: &Workload, shape: usize, unique: u64, _: usize) -> Request {
    let (links, pattern, start, flit) = SWEEP_SHAPES[shape];
    let id = format!("t{unique}");
    Request {
        line: format!(
            r#"{{"id":"{id}","kind":"throughput","n":8,"pattern":"{pattern}","start_rate":{start},"flit":{flit},"seed":{unique},"workers":0,"lanes":{SWEEP_LANES},"links":{}}}"#,
            links_json(links)
        ),
        id,
        kind: "throughput",
    }
}

fn replay_request(w: &Workload, shape: usize, _: u64, _: usize) -> Request {
    w.prime[shape].clone()
}

/// The `cache_replay` working set: small requests of every cacheable
/// kind, streamed `frontier` and `scenario` results included. Fixed for
/// every seed; only the replay order depends on it.
fn working_set() -> Vec<Request> {
    let mut set = Vec::new();
    let mut push = |kind: &'static str, body: String| {
        let id = format!("w{}", set.len());
        set.push(Request {
            line: format!(r#"{{"id":"{id}","kind":"{kind}",{body}}}"#),
            id,
            kind,
        });
    };
    for (n, c) in [(8, 2), (8, 4), (12, 4)] {
        for seed in 1..=4 {
            push(
                "solve",
                format!(r#""n":{n},"c":{c},"strategy":"dnc","moves":2000,"seed":{seed}"#),
            );
        }
    }
    for (n, c) in [(6, 2), (8, 2), (8, 3)] {
        push("optimal", format!(r#""n":{n},"c":{c}"#));
    }
    for seed in 1..=3 {
        push("sweep", format!(r#""n":4,"base_flit":256,"seed":{seed}"#));
    }
    for (pattern, seed) in [("ur", 1), ("ur", 2), ("tp", 1), ("nn", 1)] {
        push(
            "simulate",
            format!(
                r#""n":4,"pattern":"{pattern}","rate":0.05,"flit":256,"cycles":1000,"seed":{seed},"links":[]"#
            ),
        );
    }
    push(
        "throughput",
        r#""n":4,"pattern":"ur","start_rate":0.3,"flit":256,"seed":1,"workers":0,"lanes":2,"links":[]"#
            .to_string(),
    );
    for seed in 1..=2 {
        push(
            "scenario",
            format!(
                r#""manifest":{{"scenario":1,"name":"replay","seed":{seed},"topology":{{"n":4}},"sim":{{"warmup":50,"cycles":200}},"matrix":{{"seed":[1,2]}}}}"#
            ),
        );
    }
    for seed in 1..=2 {
        push(
            "frontier",
            format!(
                r#""n":4,"base_flit":256,"weight_steps":2,"moves":200,"seed":{seed},"workers":1"#
            ),
        );
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_and_rounds_are_whole() {
        for name in NAMES {
            let a = Workload::new(name, 5).unwrap();
            let b = Workload::new(name, 5).unwrap();
            let n = a.round_len() * 3;
            let la: Vec<String> = (0..n).map(|i| a.request(i).line).collect();
            let lb: Vec<String> = (0..n).map(|i| b.request(i).line).collect();
            assert_eq!(la, lb, "{name}");
            // Every round holds each shape exactly once.
            let kinds = |r: usize| {
                let mut k: Vec<&str> = (r * a.round_len()..(r + 1) * a.round_len())
                    .map(|i| a.request(i).kind)
                    .collect();
                k.sort();
                k
            };
            assert_eq!(kinds(0), kinds(2), "{name}");
        }
    }

    #[test]
    fn compute_requests_never_repeat() {
        for name in ["design_flow", "sim_latency", "saturation_sweep"] {
            let w = Workload::new(name, 11).unwrap();
            let mut lines: Vec<String> = (0..w.round_len() * 40)
                .map(|i| {
                    let r = w.request(i);
                    r.line.replacen(&r.id, "", 1)
                })
                .collect();
            let before = lines.len();
            lines.sort();
            lines.dedup();
            assert_eq!(lines.len(), before, "{name}");
        }
    }

    #[test]
    fn every_generated_line_parses() {
        for name in NAMES {
            let w = Workload::new(name, 3).unwrap();
            for i in 0..w.round_len() * 2 {
                let line = w.request(i).line;
                noc_service::protocol::parse_request(&line)
                    .unwrap_or_else(|e| panic!("{name}: {line}: {e}"));
            }
        }
    }
}
