//! Answer checks computed apart from the program: the benchmark's own
//! row-latency dynamic program, zero-load latency, brute-force optimum,
//! closed-form mesh latency, bisection bound and Pareto dominance. None
//! of them calls into the crates under test, and none compares against a
//! stored copy of an earlier answer.

use crate::util::{field_f64, field_usize, links_of, parse_line};
use noc_json::Value;
use std::collections::HashMap;
use std::sync::Mutex;

/// Paper hop weights: `T_r = 3`, `T_l = 1`.
const PAPER_WEIGHTS: (u64, u64) = (3, 1);
/// Paper packet mix: 512-bit : 128-bit packets = 1 : 4.
const MIX: [(f64, u32); 2] = [(0.2, 512), (0.8, 128)];

/// Mean flits per packet of the paper mix at a flit width.
pub fn mean_flits(flit: u32) -> f64 {
    MIX.iter()
        .map(|&(p, bits)| p * bits.div_ceil(flit) as f64)
        .sum()
}

/// Express links of a row, checked for shape: `a < b`, span ≥ 2, inside
/// the row, no duplicates.
fn valid_links(n: usize, links: &[(usize, usize)]) -> Result<(), String> {
    let mut seen = links.to_vec();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() != links.len() {
        return Err("duplicate express link".into());
    }
    match links.iter().find(|&&(a, b)| !(a + 2 <= b && b < n)) {
        Some(l) => Err(format!("invalid express link {l:?} on a row of {n}")),
        None => Ok(()),
    }
}

/// Links crossing each cut between routers `k` and `k + 1`, local link
/// included.
pub fn cross_sections(n: usize, links: &[(usize, usize)]) -> Vec<usize> {
    (0..n.saturating_sub(1))
        .map(|k| 1 + links.iter().filter(|&&(a, b)| a <= k && k < b).count())
        .collect()
}

/// All-pairs shortest U-turn-free path costs along a row with hop cost
/// `T_r + span·T_l`, as a row-major `n × n` matrix. Paths on a row only
/// move one way, so relaxing destinations in index order is exact.
pub fn row_distances(n: usize, links: &[(usize, usize)], w: (u64, u64)) -> Vec<u64> {
    let mut all: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    all.extend_from_slice(links);
    let mut dist = vec![u64::MAX; n * n];
    for s in 0..n {
        dist[s * n + s] = 0;
        for t in s + 1..n {
            dist[s * n + t] = all
                .iter()
                .filter(|&&(a, b)| b == t && a >= s && dist[s * n + a] != u64::MAX)
                .map(|&(a, b)| dist[s * n + a] + w.0 + (b - a) as u64 * w.1)
                .min()
                .unwrap_or(u64::MAX);
        }
        for t in (0..s).rev() {
            dist[s * n + t] = all
                .iter()
                .filter(|&&(a, b)| a == t && b <= s && dist[s * n + b] != u64::MAX)
                .map(|&(a, b)| dist[s * n + b] + w.0 + (b - a) as u64 * w.1)
                .min()
                .unwrap_or(u64::MAX);
        }
    }
    dist
}

/// The placement objective: mean row distance over all `n²` ordered pairs.
pub fn row_objective(n: usize, links: &[(usize, usize)], w: (u64, u64)) -> f64 {
    row_distances(n, links, w).iter().sum::<u64>() as f64 / (n * n) as f64
}

/// Head latency of `src → dst` on the `n × n` network that replicates
/// `links` in every row and column, under X-then-Y routing: the X
/// segment, the Y segment, and the destination router's pipeline.
fn head_latency(n: usize, row: &[u64], src: usize, dst: usize, tr: u64) -> u64 {
    if src == dst {
        return 0;
    }
    let (sx, sy, dx, dy) = (src % n, src / n, dst % n, dst / n);
    row[sx * n + dx] + row[sy * n + dy] + tr
}

/// Mean zero-load head latency over all `N²` ordered pairs (self-pairs
/// count 0), the figure the placement model reports as `avg_head`.
pub fn network_avg_head(n: usize, links: &[(usize, usize)]) -> f64 {
    let row = row_distances(n, links, PAPER_WEIGHTS);
    let routers = n * n;
    let total: u64 = (0..routers)
        .flat_map(|s| (0..routers).map(move |d| (s, d)))
        .map(|(s, d)| head_latency(n, &row, s, d, PAPER_WEIGHTS.0))
        .sum();
    total as f64 / (routers * routers) as f64
}

/// Closed-form mean latency of the plain `n × n` mesh: mean Manhattan
/// distance `2n³(n²−1)/3 / N²` hops of `T_r + T_l`, the destination
/// pipeline on the `N² − N` distinct pairs, plus serialization.
pub fn mesh_latency_closed_form(n: usize, flit: u32) -> f64 {
    let (tr, tl) = (PAPER_WEIGHTS.0 as f64, PAPER_WEIGHTS.1 as f64);
    let nf = n as f64;
    let routers = nf * nf;
    let hops = 2.0 * nf.powi(3) * (nf * nf - 1.0) / 3.0;
    (hops * (tr + tl) + tr * (routers * routers - routers)) / (routers * routers) + mean_flits(flit)
}

/// Traffic weight of `src → dst` for a synthetic pattern on `n × n`.
fn pattern_weight(pattern: &str, n: usize, src: usize, dst: usize) -> f64 {
    if src == dst {
        return 0.0;
    }
    let routers = n * n;
    let (sx, sy, dx, dy) = (src % n, src / n, dst % n, dst / n);
    match pattern {
        "ur" => 1.0,
        "tp" => f64::from(u8::from(dx == sy && dy == sx)),
        "nn" => f64::from(u8::from(sx.abs_diff(dx) + sy.abs_diff(dy) == 1)),
        "hs" => {
            // 40% of traffic to the four corners, the rest uniform.
            let corners = [0, n - 1, n * (n - 1), routers - 1];
            0.6 / (routers - 1) as f64
                + if corners.contains(&dst) {
                    0.4 / 4.0
                } else {
                    0.0
                }
        }
        _ => 0.0,
    }
}

/// Zero-load packet latency of a simulation: traffic-weighted head
/// latency plus the cycles the tail flit trails the head.
pub fn sim_zero_load(n: usize, links: &[(usize, usize)], pattern: &str, flit: u32) -> f64 {
    let row = row_distances(n, links, PAPER_WEIGHTS);
    let routers = n * n;
    let (mut weighted, mut total) = (0.0, 0.0);
    for s in 0..routers {
        for d in 0..routers {
            let w = pattern_weight(pattern, n, s, d);
            weighted += w * head_latency(n, &row, s, d, PAPER_WEIGHTS.0) as f64;
            total += w;
        }
    }
    weighted / total + mean_flits(flit) - 1.0
}

/// Upper bound on accepted packets per node per cycle for uniform-random
/// or transpose traffic: a quarter of the nodes' packets cross the
/// middle cut each way, and each of the `n` rows carries one flit per
/// cycle per link crossing it.
pub fn bisection_bound(n: usize, links: &[(usize, usize)], flit: u32) -> f64 {
    let middle = cross_sections(n, links)[n / 2 - 1] as f64;
    4.0 * middle / (n as f64 * mean_flits(flit))
}

/// Brute-force optimum of `P̂(n, C)`: every set of express links whose
/// cross-sections all stay within `C`, enumerated depth-first.
pub fn brute_force_optimum(n: usize, c: usize, w: (u64, u64)) -> f64 {
    struct Search {
        n: usize,
        c: usize,
        w: (u64, u64),
        candidates: Vec<(usize, usize)>,
        cuts: Vec<usize>,
        chosen: Vec<(usize, usize)>,
        best: f64,
    }
    impl Search {
        fn walk(&mut self, k: usize) {
            if k == self.candidates.len() {
                self.best = self.best.min(row_objective(self.n, &self.chosen, self.w));
                return;
            }
            self.walk(k + 1);
            let (a, b) = self.candidates[k];
            if self.cuts[a..b].iter().all(|&x| x < self.c) {
                self.cuts[a..b].iter_mut().for_each(|x| *x += 1);
                self.chosen.push((a, b));
                self.walk(k + 1);
                self.chosen.pop();
                self.cuts[a..b].iter_mut().for_each(|x| *x -= 1);
            }
        }
    }
    let mut search = Search {
        n,
        c,
        w,
        candidates: (0..n)
            .flat_map(|a| (a + 2..n).map(move |b| (a, b)))
            .collect(),
        cuts: vec![1; n - 1],
        chosen: Vec::new(),
        best: f64::INFINITY,
    };
    search.walk(0);
    search.best
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

fn weights_of(req: &Value) -> (u64, u64) {
    (
        req.get("router_cycles")
            .and_then(Value::as_u64)
            .unwrap_or(PAPER_WEIGHTS.0),
        req.get("unit_link_cycles")
            .and_then(Value::as_u64)
            .unwrap_or(PAPER_WEIGHTS.1),
    )
}

/// Checks a placement answer: valid links, every cross-section within
/// `c`, and an objective equal to the recomputed one.
fn check_placement(n: usize, c: usize, w: (u64, u64), result: &Value) -> Result<f64, String> {
    let links = links_of(result, "links")?;
    valid_links(n, &links)?;
    let widest = cross_sections(n, &links).into_iter().max().unwrap_or(1);
    if widest > c {
        return Err(format!("cross-section {widest} exceeds C = {c}"));
    }
    let objective = field_f64(result, "objective")?;
    let mine = row_objective(n, &links, w);
    if !close(objective, mine) {
        return Err(format!("objective {objective} but the links give {mine}"));
    }
    Ok(objective)
}

/// The checker: dispatches on the request kind and caches brute-force
/// optima, which many requests share.
#[derive(Default)]
pub struct Checker {
    optima: Mutex<HashMap<(usize, usize, u64, u64), f64>>,
}

impl Checker {
    fn optimum(&self, n: usize, c: usize, w: (u64, u64)) -> f64 {
        let key = (n, c, w.0, w.1);
        if let Some(&v) = self.optima.lock().expect("checker lock").get(&key) {
            return v;
        }
        let v = brute_force_optimum(n, c, w);
        self.optima.lock().expect("checker lock").insert(key, v);
        v
    }

    /// Checks the answer `lines` to request `line`.
    pub fn check(&self, line: &str, lines: &[String]) -> Result<(), String> {
        let req = parse_line(line).ok_or("unparsable request")?;
        let parsed: Vec<Value> = lines
            .iter()
            .map(|l| parse_line(l).ok_or_else(|| "unparsable response".to_string()))
            .collect::<Result<_, _>>()?;
        let last = parsed.last().ok_or("no response")?;
        let result = last.get("result").ok_or("response without result")?;
        let kind = req.get("kind").and_then(Value::as_str).unwrap_or("");
        let n = field_usize(&req, "n").unwrap_or(0);
        match kind {
            "solve" => {
                let c = field_usize(&req, "c")?;
                let w = weights_of(&req);
                let objective = check_placement(n, c, w, result)?;
                if n == 8 && (c == 2 || c == 3) && w == PAPER_WEIGHTS {
                    let best = self.optimum(n, c, w);
                    if !close(objective, best) {
                        return Err(format!(
                            "P({n},{c}) solve {objective} misses the optimum {best}"
                        ));
                    }
                }
                Ok(())
            }
            "optimal" => {
                let c = field_usize(&req, "c")?;
                let w = weights_of(&req);
                let objective = check_placement(n, c, w, result)?;
                let best = self.optimum(n, c, w);
                if close(objective, best) {
                    Ok(())
                } else {
                    Err(format!("optimal {objective} but brute force finds {best}"))
                }
            }
            "sweep" => check_sweep(n, field_usize(&req, "base_flit")? as u32, result),
            "simulate" => check_simulate(&req, result),
            "throughput" => check_throughput(&req, result),
            "frontier" => check_frontier(n, &parsed),
            "scenario" => check_stream_framing(&parsed),
            other => Err(format!("no check for kind {other:?}")),
        }
    }
}

fn check_sweep(n: usize, base_flit: u32, result: &Value) -> Result<(), String> {
    let points = result
        .get("points")
        .and_then(Value::as_array)
        .ok_or("no points")?;
    let first = points.first().ok_or("empty sweep")?;
    let mut best = f64::INFINITY;
    for p in points {
        let c = field_usize(p, "c")?;
        let flit = field_usize(p, "flit_bits")? as u32;
        if flit != base_flit / c as u32 {
            return Err(format!(
                "C = {c} has flit {flit}, budget gives {}",
                base_flit / c as u32
            ));
        }
        let links = links_of(p, "links")?;
        valid_links(n, &links)?;
        if cross_sections(n, &links).into_iter().max().unwrap_or(1) > c {
            return Err(format!("C = {c} point exceeds its link limit"));
        }
        if !close(
            field_f64(p, "row_objective")?,
            row_objective(n, &links, PAPER_WEIGHTS),
        ) {
            return Err(format!("C = {c} row objective disagrees with its links"));
        }
        let head = network_avg_head(n, &links);
        let latency = field_f64(p, "avg_latency")?;
        if !close(field_f64(p, "avg_head")?, head) || !close(latency, head + mean_flits(flit)) {
            return Err(format!("C = {c} latency disagrees with its links"));
        }
        best = best.min(latency);
    }
    let mesh = mesh_latency_closed_form(n, base_flit);
    if field_usize(first, "c")? != 1 || !close(field_f64(first, "avg_latency")?, mesh) {
        return Err(format!(
            "C = 1 point is not the closed-form mesh latency {mesh}"
        ));
    }
    if !close(field_f64(result, "best_latency")?, best) {
        return Err("best_latency is not the lowest point".into());
    }
    if n == 8 && base_flit == 256 {
        // Fig. 5: the best 8×8 design cuts mean latency by 23.5% against
        // the mesh; accept 20%–27%.
        let reduction = 1.0 - best / mesh;
        if !(0.20..=0.27).contains(&reduction) {
            return Err(format!(
                "8x8 reduction {:.1}% is far from the paper's 23.5%",
                reduction * 100.0
            ));
        }
    }
    Ok(())
}

fn check_simulate(req: &Value, r: &Value) -> Result<(), String> {
    let n = field_usize(req, "n")?;
    let links = links_of(req, "links")?;
    let flit = field_usize(req, "flit")? as u32;
    let pattern = req.get("pattern").and_then(Value::as_str).unwrap_or("");
    let measured = field_usize(r, "measured_packets")?;
    if r.get("drained").and_then(Value::as_bool) == Some(true)
        && field_usize(r, "completed_packets")? != measured
    {
        return Err("drained run lost packets".into());
    }
    let q = ["p50_latency", "p95_latency", "p99_latency", "max_latency"]
        .map(|k| field_f64(r, k).unwrap_or(f64::NAN));
    if !(q[0] <= q[1] && q[1] <= q[2] && q[2] <= q[3]) {
        return Err(format!("latency percentiles out of order: {q:?}"));
    }
    let avg = field_f64(r, "avg_latency")?;
    let zero = sim_zero_load(n, &links, pattern, flit);
    // No packet beats its zero-load path; at the low rates used here
    // contention adds well under half of it. `zero` is the mean over the
    // expected traffic, and the sampled destinations and packet sizes of
    // a run scatter around it by about 1% (3σ on the smallest runs), so
    // the lower edge gives 4%.
    if !(avg >= zero * 0.96 && avg <= zero * 1.5) {
        return Err(format!(
            "mean latency {avg} outside [{zero}, 1.5 x] of zero load"
        ));
    }
    // Offered load as injected: permutation patterns silence the nodes
    // that map to themselves, so the nominal rate overstates it.
    let window = req.get("cycles").and_then(Value::as_u64).unwrap_or(20_000) as f64;
    let offered = measured as f64 / (window * (n * n) as f64);
    let accepted = field_f64(r, "accepted_throughput")?;
    if (accepted - offered).abs() > 0.05 * offered {
        return Err(format!(
            "accepted {accepted} far from offered {offered} below saturation"
        ));
    }
    Ok(())
}

fn check_throughput(req: &Value, r: &Value) -> Result<(), String> {
    let n = field_usize(req, "n")?;
    let links = links_of(req, "links")?;
    let flit = field_usize(req, "flit")? as u32;
    let samples = r
        .get("samples")
        .and_then(Value::as_array)
        .ok_or("no samples")?;
    if samples.len() < 2 {
        return Err("sweep with fewer than two samples".into());
    }
    let mut last_offered = 0.0;
    let mut top = 0.0f64;
    for s in samples {
        let offered = field_f64(s, "offered")?;
        let accepted = field_f64(s, "accepted")?;
        if offered < last_offered {
            return Err("offered load falls along the samples".into());
        }
        if accepted > offered * 1.02 + 1e-3 {
            return Err(format!("accepted {accepted} above offered {offered}"));
        }
        last_offered = offered;
        top = top.max(accepted);
    }
    let saturation = field_f64(r, "saturation")?;
    if !close(saturation, top) {
        return Err("saturation is not the highest accepted rate".into());
    }
    let bound = bisection_bound(n, &links, flit);
    if saturation > bound {
        return Err(format!(
            "saturation {saturation} above the bisection bound {bound}"
        ));
    }
    Ok(())
}

fn check_stream_framing(lines: &[Value]) -> Result<(), String> {
    let (items, summary) = lines.split_at(lines.len() - 1);
    if summary[0].get("done").and_then(Value::as_bool) != Some(true) {
        return Err("stream without a done line".into());
    }
    for (k, item) in items.iter().enumerate() {
        if item.get("seq").and_then(Value::as_usize) != Some(k)
            || item.get("of").and_then(Value::as_usize) != Some(items.len())
        {
            return Err("stream items out of sequence".into());
        }
    }
    Ok(())
}

fn check_frontier(n: usize, lines: &[Value]) -> Result<(), String> {
    check_stream_framing(lines)?;
    let mut points = Vec::new();
    for item in &lines[..lines.len() - 1] {
        let p = item.get("result").ok_or("item without result")?;
        let links = links_of(p, "placement")?;
        valid_links(n, &links)?;
        let c = field_usize(p, "c")?;
        if cross_sections(n, &links).into_iter().max().unwrap_or(1) > c {
            return Err("frontier point exceeds its link limit".into());
        }
        points.push((
            field_f64(p, "latency")?,
            field_f64(p, "power_mw")?,
            field_f64(p, "links")?,
        ));
    }
    for a in &points {
        for b in &points {
            let dominates =
                a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2);
            if dominates {
                return Err(format!("frontier point {b:?} is dominated by {a:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Each check must reject a deliberately corrupted answer. The
    //! answers here are built by hand from the benchmark's own model, so
    //! the tests run without the daemon.
    use super::*;

    fn solve_answer(n: usize, c: usize, links: &[(usize, usize)], objective: f64) -> String {
        format!(
            r#"{{"id":"x","ok":true,"cached":false,"result":{{"n":{n},"c":{c},"objective":{objective},"links":{}}}}}"#,
            crate::workloads::links_json(links)
        )
    }

    #[test]
    fn mesh_closed_form_matches_table_values() {
        // 8×8 mesh, 256-bit flits: 23.953… head + 1.2 serialization.
        assert!((mesh_latency_closed_form(8, 256) - (98112.0 / 4096.0 + 1.2)).abs() < 1e-12);
        assert!(close(
            mesh_latency_closed_form(8, 256),
            network_avg_head(8, &[]) + 1.2
        ));
        assert_eq!(row_objective(8, &[], PAPER_WEIGHTS), 10.5);
    }

    #[test]
    fn solve_check_rejects_corruption() {
        let checker = Checker::default();
        let req = r#"{"id":"x","kind":"solve","n":8,"c":2,"moves":10000,"seed":1}"#;
        // The brute-force optimum's links, found by the same search.
        let best = brute_force_optimum(8, 2, PAPER_WEIGHTS);
        let links = [(0, 2), (2, 4), (4, 6)];
        let obj = row_objective(8, &links, PAPER_WEIGHTS);
        assert!(obj >= best);
        // Wrong objective for the links.
        let bad = solve_answer(8, 2, &links, obj - 0.5);
        assert!(checker.check(req, &[bad]).is_err());
        // Cross-section above C.
        let wide = [(0, 2), (0, 3), (1, 3)];
        let bad = solve_answer(8, 2, &wide, row_objective(8, &wide, PAPER_WEIGHTS));
        assert!(checker
            .check(req, &[bad])
            .unwrap_err()
            .contains("cross-section"));
        // A consistent but sub-optimal answer misses the P(8,2) optimum.
        let poor = [(0, 2)];
        let bad = solve_answer(8, 2, &poor, row_objective(8, &poor, PAPER_WEIGHTS));
        assert!(checker.check(req, &[bad]).unwrap_err().contains("optimum"));
        // Invalid link shape.
        let bad = solve_answer(8, 2, &[(3, 4)], 10.5);
        assert!(checker.check(req, &[bad]).is_err());
    }

    #[test]
    fn sweep_check_rejects_corruption() {
        let n = 8;
        let placements: [(usize, Vec<(usize, usize)>); 3] = [
            (1, vec![]),
            (2, vec![(0, 2), (2, 4), (4, 6)]),
            (
                4,
                vec![(0, 2), (0, 3), (1, 3), (2, 6), (3, 5), (3, 7), (5, 7)],
            ),
        ];
        let point = |c: usize, links: &[(usize, usize)], latency_shift: f64| {
            let flit = 256 / c as u32;
            let head = network_avg_head(n, links);
            format!(
                r#"{{"c":{c},"flit_bits":{flit},"row_objective":{},"avg_head":{head},"avg_serialization":{},"avg_latency":{},"links":{}}}"#,
                row_objective(n, links, PAPER_WEIGHTS),
                mean_flits(flit),
                head + mean_flits(flit) + latency_shift,
                crate::workloads::links_json(links)
            )
        };
        let answer = |shift: f64| {
            let pts: Vec<String> = placements
                .iter()
                .map(|(c, l)| point(*c, l, if *c == 1 { shift } else { 0.0 }))
                .collect();
            let best = placements
                .iter()
                .map(|(c, l)| network_avg_head(n, l) + mean_flits(256 / *c as u32))
                .fold(f64::INFINITY, f64::min);
            format!(
                r#"{{"id":"x","ok":true,"result":{{"n":8,"best_c":4,"best_latency":{best},"points":[{}]}}}}"#,
                pts.join(",")
            )
        };
        let req = r#"{"id":"x","kind":"sweep","n":8,"base_flit":256,"seed":1}"#;
        let checker = Checker::default();
        checker
            .check(req, &[answer(0.0)])
            .expect("a consistent sweep passes");
        assert!(
            checker.check(req, &[answer(0.7)]).is_err(),
            "C = 1 off the closed form"
        );
    }

    fn sim_answer(avg: f64, p95: f64, completed: usize, accepted: f64) -> String {
        format!(
            r#"{{"id":"x","ok":true,"result":{{"cycles":25000,"measured_packets":25600,"completed_packets":{completed},"drained":true,"avg_latency":{avg},"p50_latency":23.0,"p95_latency":{p95},"p99_latency":60.0,"max_latency":90,"offered_rate":0.02,"accepted_throughput":{accepted}}}}}"#
        )
    }

    #[test]
    fn simulate_check_rejects_corruption() {
        let req = r#"{"id":"x","kind":"simulate","n":8,"pattern":"ur","rate":0.02,"flit":256,"cycles":20000,"seed":1,"links":[]}"#;
        let checker = Checker::default();
        let zero = sim_zero_load(8, &[], "ur", 256);
        checker
            .check(req, &[sim_answer(zero * 1.01, 43.0, 25600, 0.02)])
            .expect("plausible run passes");
        assert!(
            checker
                .check(req, &[sim_answer(zero * 0.9, 43.0, 25600, 0.02)])
                .is_err(),
            "beats zero load"
        );
        assert!(
            checker
                .check(req, &[sim_answer(zero * 1.6, 43.0, 25600, 0.02)])
                .is_err(),
            "far above zero load"
        );
        assert!(
            checker
                .check(req, &[sim_answer(zero * 1.01, 70.0, 25600, 0.02)])
                .is_err(),
            "p95 > p99"
        );
        assert!(
            checker
                .check(req, &[sim_answer(zero * 1.01, 43.0, 25599, 0.02)])
                .is_err(),
            "lost packet"
        );
        assert!(
            checker
                .check(req, &[sim_answer(zero * 1.01, 43.0, 25600, 0.015)])
                .is_err(),
            "accepted far below offered"
        );
    }

    #[test]
    fn throughput_check_rejects_corruption() {
        let req = r#"{"id":"x","kind":"throughput","n":8,"pattern":"ur","start_rate":0.16,"flit":256,"seed":1,"links":[]}"#;
        let answer = |sat: f64, second_offered: f64| {
            format!(
                r#"{{"id":"x","ok":true,"result":{{"n":8,"saturation":{sat},"samples":[{{"offered":0.16,"accepted":0.16,"avg_latency":30.0}},{{"offered":{second_offered},"accepted":{sat},"avg_latency":90.0}}]}}}}"#
            )
        };
        let checker = Checker::default();
        checker
            .check(req, &[answer(0.29, 0.35)])
            .expect("plausible sweep passes");
        assert!(
            checker.check(req, &[answer(0.29, 0.15)]).is_err(),
            "offered falls"
        );
        assert!(
            checker.check(req, &[answer(0.30, 0.29)]).is_err(),
            "accepted above offered"
        );
        // 4·1/(8·1.2) = 0.4167 is the mesh bisection bound.
        assert!(checker
            .check(req, &[answer(0.45, 0.5)])
            .unwrap_err()
            .contains("bisection"));
    }

    #[test]
    fn frontier_check_rejects_a_dominated_point() {
        let item = |seq: usize, of: usize, latency: f64, power: f64| {
            format!(
                r#"{{"id":"f","ok":true,"seq":{seq},"of":{of},"result":{{"latency":{latency},"avg_head":1.0,"power_mw":{power},"links":0,"c":1,"flit_bits":256,"w":0,"placement":[]}}}}"#
            )
        };
        let done =
            r#"{"id":"f","ok":true,"cached":false,"done":true,"result":{"points":2}}"#.to_string();
        let req = r#"{"id":"f","kind":"frontier","n":4,"weight_steps":2,"moves":200,"seed":1}"#;
        let checker = Checker::default();
        checker
            .check(
                req,
                &[item(0, 2, 10.0, 5.0), item(1, 2, 9.0, 6.0), done.clone()],
            )
            .expect("a trade-off passes");
        assert!(checker
            .check(
                req,
                &[item(0, 2, 10.0, 5.0), item(1, 2, 11.0, 6.0), done.clone()]
            )
            .unwrap_err()
            .contains("dominated"));
        assert!(
            checker.check(req, &[item(1, 2, 10.0, 5.0), done]).is_err(),
            "bad framing"
        );
    }

    #[test]
    fn optimal_check_rejects_a_suboptimal_answer() {
        let req =
            r#"{"id":"o","kind":"optimal","n":8,"c":3,"router_cycles":5,"unit_link_cycles":1}"#;
        let links = [(0, 2)];
        let w = (5, 1);
        let answer = solve_answer(8, 3, &links, row_objective(8, &links, w));
        assert!(Checker::default()
            .check(req, &[answer])
            .unwrap_err()
            .contains("brute force"));
    }
}
