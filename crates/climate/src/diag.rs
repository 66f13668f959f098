//! Diagnostics for the coupled model: stability criteria, field
//! statistics, and conservation-style time series — the instrumentation a
//! model user runs alongside a multicentury simulation.

use crate::grid::{Grid, StencilParams};

/// Summary statistics of one field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Mean over owned cells.
    pub mean: f64,
    /// Sum of squares ("energy").
    pub energy: f64,
}

/// Computes summary statistics over a grid's owned cells.
pub fn field_stats(g: &Grid) -> FieldStats {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut energy = 0.0;
    let n = (g.h * g.w) as f64;
    for i in 0..g.h {
        for j in 0..g.w {
            let v = g.get(i, j);
            min = min.min(v);
            max = max.max(v);
            sum += v;
            energy += v * v;
        }
    }
    FieldStats {
        min,
        max,
        mean: sum / n.max(1.0),
        energy,
    }
}

/// Why a parameter set is unstable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StabilityIssue {
    /// Diffusion number `dt·diff·4 > 1` (explicit scheme blows up).
    DiffusionNumber(f64),
    /// Advection CFL `dt·max(|vx|,|vy|) > 1`.
    AdvectionCfl(f64),
    /// Relaxation coefficient outside `[0, 1]` (overshoots the forcing).
    Relaxation(f64),
}

/// Checks the explicit-scheme stability criteria for `p` (unit grid
/// spacing). Returns every violated condition.
pub fn check_stability(p: StencilParams) -> Vec<StabilityIssue> {
    let mut issues = Vec::new();
    let dn = p.dt * p.diff * 4.0;
    if dn > 1.0 {
        issues.push(StabilityIssue::DiffusionNumber(dn));
    }
    let cfl = p.dt * p.vx.abs().max(p.vy.abs());
    if cfl > 1.0 {
        issues.push(StabilityIssue::AdvectionCfl(cfl));
    }
    if !(0.0..=1.0).contains(&p.relax) {
        issues.push(StabilityIssue::Relaxation(p.relax));
    }
    issues
}

/// A recorded time series of per-step field statistics.
#[derive(Debug, Default, Clone)]
pub struct Series {
    /// One entry per recorded step.
    pub steps: Vec<FieldStats>,
}

impl Series {
    /// Records the current state of a grid.
    pub fn record(&mut self, g: &Grid) {
        self.steps.push(field_stats(g));
    }

    /// Whether the recorded energy is non-increasing within `tol`
    /// (dissipativity check for unforced diffusion).
    pub fn energy_nonincreasing(&self, tol: f64) -> bool {
        self.steps
            .windows(2)
            .all(|w| w[1].energy <= w[0].energy * (1.0 + tol))
    }

    /// Largest |value| seen anywhere in the series (blow-up detector).
    pub fn max_abs(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.min.abs().max(s.max.abs()))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupled::{atm_params, ocean_params};
    use crate::grid::{step, wrap_halos};

    #[test]
    fn stats_of_constant_field() {
        let g = Grid::new(4, 4, 0, |_, _| 2.0);
        let s = field_stats(&g);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.energy, 4.0 * 16.0);
    }

    #[test]
    fn paper_model_parameters_are_stable() {
        assert!(check_stability(atm_params()).is_empty());
        assert!(check_stability(ocean_params()).is_empty());
    }

    #[test]
    fn violations_are_reported_individually() {
        let bad = StencilParams {
            dt: 1.0,
            diff: 1.0, // diffusion number 4
            vx: 2.0,   // CFL 2
            vy: 0.0,
            relax: 1.5, // overshoot
        };
        let issues = check_stability(bad);
        assert_eq!(issues.len(), 3);
        assert!(matches!(issues[0], StabilityIssue::DiffusionNumber(d) if d == 4.0));
        assert!(matches!(issues[1], StabilityIssue::AdvectionCfl(c) if c == 2.0));
        assert!(matches!(issues[2], StabilityIssue::Relaxation(r) if r == 1.5));
    }

    #[test]
    fn stable_diffusion_dissipates_energy() {
        let mut g = Grid::new(16, 16, 0, |i, j| ((i * 7 + j * 3) % 5) as f64);
        let p = StencilParams {
            dt: 0.1,
            diff: 1.0,
            vx: 0.0,
            vy: 0.0,
            relax: 0.0,
        };
        assert!(check_stability(p).is_empty());
        let mut series = Series::default();
        series.record(&g);
        for _ in 0..30 {
            wrap_halos(&mut g);
            g = step(&g, p, None);
            series.record(&g);
        }
        // Interior smoothing dissipates; Dirichlet rows pin the ends, so
        // allow a tiny tolerance.
        assert!(series.energy_nonincreasing(1e-9));
        assert!(series.max_abs() <= 4.0 + 1e-12);
    }

    #[test]
    fn unstable_parameters_actually_blow_up() {
        // The checker's point: a violated diffusion number really explodes.
        let mut g = Grid::new(12, 12, 0, |i, j| if i == 6 && j == 6 { 1.0 } else { 0.0 });
        let p = StencilParams {
            dt: 1.0,
            diff: 1.0,
            vx: 0.0,
            vy: 0.0,
            relax: 0.0,
        };
        assert!(!check_stability(p).is_empty(), "checker flags it");
        let mut series = Series::default();
        for _ in 0..20 {
            wrap_halos(&mut g);
            g = step(&g, p, None);
            series.record(&g);
        }
        assert!(series.max_abs() > 1e3, "and it does blow up");
    }
}
