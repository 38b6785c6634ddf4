//! Spans around the benchmark's calls into each layer, kept in memory,
//! and the layer tree built from them.
//!
//! A span is recorded only in a traced iteration. It holds its wall
//! duration and the change, over the span, of every timer in
//! `sp2_core::metrics::snapshot()` that the program runs inside such a
//! call (kernel measurement, the campaign engine and its phases, the
//! per-experiment timers). Those timers become the span's children,
//! nested as the program nests them, so a layer's self time is its
//! duration minus the part its children cover.

use sp2_trace::{MetricValue, MetricsSnapshot};
use std::time::Instant;

/// Timers the program records inside the benchmark's spans, with the
/// timer each one runs inside; one whose parent did not run in the span
/// sits directly under the span. Phases are disjoint within one
/// campaign run. Kernel measurement runs inside a campaign (its
/// page-fault and daemon signatures, measured before the event loop)
/// when the span holds one, and directly inside library builds and
/// the kernel-simulating experiments otherwise.
const NESTED: &[(&str, Option<&str>)] = &[
    ("cluster.campaign", None),
    ("cluster.phase.advance", Some("cluster.campaign")),
    ("cluster.phase.sample", Some("cluster.campaign")),
    ("cluster.phase.schedule", Some("cluster.campaign")),
    ("cluster.phase.faults", Some("cluster.campaign")),
    ("power2.signature_measure", Some("cluster.campaign")),
];

/// Seconds accumulated by a duration metric.
pub fn seconds(snap: &MetricsSnapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(&MetricValue::Duration { total_ns, .. }) => total_ns as f64 * 1e-9,
        _ => 0.0,
    }
}

/// The count of a counter, or the number of spans of a timer.
pub fn count(snap: &MetricsSnapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(&MetricValue::Duration { count, .. }) => count as f64,
        Some(v) => v.as_f64(),
        None => 0.0,
    }
}

/// One node of the layer tree: total seconds and children.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub total_s: f64,
    pub children: Vec<Layer>,
}

impl Layer {
    fn leaf(name: &str, total_s: f64) -> Layer {
        Layer {
            name: name.to_string(),
            total_s,
            children: Vec::new(),
        }
    }

    pub fn self_s(&self) -> f64 {
        self.total_s - self.children.iter().map(|c| c.total_s).sum::<f64>()
    }

    fn child(&mut self, name: &str) -> &mut Layer {
        let i = match self.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.children.push(Layer::leaf(name, 0.0));
                self.children.len() - 1
            }
        };
        &mut self.children[i]
    }

    /// Adds `other`'s totals into `self`, matching children by name.
    fn merge(&mut self, other: &Layer) {
        self.total_s += other.total_s;
        for c in &other.children {
            self.child(&c.name).merge(c);
        }
    }

    /// Divides every total by `k` (a per-lane average of parallel lanes).
    pub fn scale(&mut self, k: f64) {
        self.total_s /= k;
        for c in &mut self.children {
            c.scale(k);
        }
    }

    fn min_self(&self) -> (f64, String) {
        self.children.iter().map(Layer::min_self).fold(
            (self.self_s(), self.name.clone()),
            |a, b| {
                if b.0 < a.0 {
                    b
                } else {
                    a
                }
            },
        )
    }

    fn render(&self, depth: usize, out: &mut Vec<String>) {
        out.push(format!(
            "{:indent$}{:<width$} total {:>10.6} s  self {:>10.6} s",
            "",
            self.name,
            self.total_s,
            self.self_s(),
            indent = 2 * depth,
            width = 36 - 2 * depth
        ));
        for c in &self.children {
            c.render(depth + 1, out);
        }
    }
}

/// The children that the program's own timers contribute to a span,
/// from the snapshots taken at its start and end.
pub fn nested(before: &MetricsSnapshot, after: &MetricsSnapshot, experiments: bool) -> Vec<Layer> {
    let delta = |name: &str| seconds(after, name) - seconds(before, name);
    let mut top: Vec<Layer> = Vec::new();
    for &(name, parent) in NESTED {
        let d = delta(name);
        if d <= 0.0 {
            continue;
        }
        match parent.and_then(|p| top.iter_mut().find(|l| l.name == p)) {
            Some(parent) => parent.children.push(Layer::leaf(name, d)),
            None => top.push(Layer::leaf(name, d)),
        }
    }
    if experiments {
        for (name, _) in after.entries() {
            if name.starts_with("core.experiment.") {
                let d = delta(name);
                if d > 0.0 {
                    top.push(Layer::leaf(name, d));
                }
            }
        }
    }
    top
}

/// Spans of one iteration, aggregated by name in first-seen order.
pub struct Tracer {
    on: bool,
    layers: Vec<Layer>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            layers: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` when tracing.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let before = sp2_core::metrics::snapshot();
        let t0 = Instant::now();
        let out = f();
        let total_s = t0.elapsed().as_secs_f64();
        let after = sp2_core::metrics::snapshot();
        self.add(Layer {
            name: name.to_string(),
            total_s,
            children: nested(&before, &after, false),
        });
        out
    }

    /// Adds a layer measured by other means (parallel lanes, say).
    pub fn add(&mut self, layer: Layer) {
        match self.layers.iter_mut().find(|l| l.name == layer.name) {
            Some(l) => l.merge(&layer),
            None => self.layers.push(layer),
        }
    }

    /// Closes the iteration: the tree under a root of `wall_s`, whose
    /// self time is the part no span covers.
    pub fn finish(self, wall_s: f64) -> Tree {
        Tree {
            root: Layer {
                name: "wall".into(),
                total_s: wall_s,
                children: self.layers,
            },
        }
    }
}

/// A traced iteration's layer tree.
pub struct Tree {
    pub root: Layer,
}

impl Tree {
    /// Wall time no span covers.
    pub fn unattributed_s(&self) -> f64 {
        self.root.self_s()
    }

    /// The tree's invariant: self times, `unattributed` included, sum
    /// to the wall time. Each self time is its layer's total minus its
    /// children's, so the sum holds by construction; what can break is
    /// a layer its children overrun, or spans that overrun the wall,
    /// and either shows as a negative self time, which this rejects.
    pub fn check(&self) -> Result<(), String> {
        let (min, at) = self.root.min_self();
        // Timers and spans read the clock at slightly different
        // instants; a child may overrun its parent by that much.
        let slack = 1e-4 + 1e-6 * self.root.total_s;
        if min < -slack {
            return Err(format!(
                "layer tree: {at} has negative self time {min:.6} s"
            ));
        }
        Ok(())
    }

    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.root.render(0, &mut out);
        out
    }

    /// Total seconds of every layer named `name`, at any depth.
    pub fn total(&self, name: &str) -> f64 {
        fn walk(l: &Layer, name: &str) -> f64 {
            let own = if l.name == name { l.total_s } else { 0.0 };
            own + l.children.iter().map(|c| walk(c, name)).sum::<f64>()
        }
        walk(&self.root, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Tree {
        let mut t = Tracer::new(true);
        t.add(Layer {
            name: "a".into(),
            total_s: 2.0,
            children: vec![Layer::leaf("x", 1.5)],
        });
        t.add(Layer::leaf("b", 1.0));
        t.add(Layer {
            name: "a".into(),
            total_s: 1.0,
            children: vec![Layer::leaf("x", 0.5)],
        });
        t.finish(4.5)
    }

    #[test]
    fn self_times_and_unattributed_sum_to_wall() {
        let t = tree();
        assert_eq!(t.root.children.len(), 2, "spans merge by name");
        assert_eq!(t.total("a"), 3.0);
        assert_eq!(t.total("x"), 2.0);
        assert_eq!(t.unattributed_s(), 0.5);
        t.check().expect("consistent tree");
    }

    #[test]
    fn a_child_larger_than_its_parent_fails_the_check() {
        let mut t = Tracer::new(true);
        t.add(Layer {
            name: "a".into(),
            total_s: 1.0,
            children: vec![Layer::leaf("x", 1.5)],
        });
        assert!(t.finish(2.0).check().is_err());
        let mut t = Tracer::new(true);
        t.add(Layer::leaf("a", 3.0));
        assert!(t.finish(2.0).check().is_err(), "spans exceed the wall");
    }

    #[test]
    fn lane_average_scales_the_whole_subtree() {
        let mut l = Layer {
            name: "a".into(),
            total_s: 4.0,
            children: vec![Layer::leaf("x", 2.0)],
        };
        l.scale(2.0);
        assert_eq!((l.total_s, l.children[0].total_s), (2.0, 1.0));
    }
}
