//! The campaign abstract syntax tree and its canonical renderer.
//!
//! A [`Campaign`] is a fully resolved description of an evaluation run:
//! scalar directives (name, seeds, trial counts), a scenario grid
//! ([`Axes`]) and an ordered list of scheduled condition changes
//! ([`ScheduleEntry`]). Parsing fills every omitted directive with its
//! default, so the AST has no "absent" notion — which is what makes
//! [`render`](Campaign::render) a canonical form: `parse(render(c)) == c`
//! for every valid campaign (pinned by the round-trip property tests).

use std::fmt::Write as _;

use wimi_phy::channel::Environment;
use wimi_phy::material::{ContainerMaterial, Liquid, SaltwaterConcentration, LIQUIDS};
use wimi_phy::scenario::LiquidSpec;

/// Default root seed (matches the harness default `RunOptions::seed`).
pub const DEFAULT_SEED: u64 = 0xACC0;
/// Default fault-plan seed (matches the degradation experiment's).
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;
/// Default training trials per material per cell.
pub const DEFAULT_TRAIN: usize = 4;
/// Default test trials per material per cell.
pub const DEFAULT_TEST: usize = 4;

/// One material under test: a catalog liquid or a saltwater grade.
#[derive(Debug, Clone, PartialEq)]
pub enum MaterialRef {
    /// One of the paper's ten catalog liquids.
    Catalog(Liquid),
    /// Saltwater at a concentration in grams of NaCl per 100 ml.
    Saltwater(f64),
}

impl MaterialRef {
    /// The canonical campaign-file token (`Vinegar`, `salt1.5`, ...).
    pub fn token(&self) -> String {
        match self {
            MaterialRef::Catalog(liquid) => format!("{liquid:?}"),
            MaterialRef::Saltwater(pct) => format!("salt{pct}"),
        }
    }

    /// Human-readable class label for reports and confusion matrices.
    pub fn label(&self) -> String {
        match self {
            MaterialRef::Catalog(liquid) => liquid.name().to_owned(),
            MaterialRef::Saltwater(pct) => format!("Salt {pct}%"),
        }
    }

    /// The dielectric specification driving the simulator.
    pub fn spec(&self) -> LiquidSpec {
        match self {
            MaterialRef::Catalog(liquid) => (*liquid).into(),
            MaterialRef::Saltwater(pct) => LiquidSpec::saltwater(SaltwaterConcentration::new(*pct)),
        }
    }
}

/// One value of the `materials` axis: the set of classes a cell
/// discriminates between.
#[derive(Debug, Clone, PartialEq)]
pub enum MaterialSet {
    /// Shorthand for the paper's full ten-liquid catalog.
    Paper10,
    /// An explicit `+`-joined list of materials.
    List(Vec<MaterialRef>),
}

impl MaterialSet {
    /// The concrete materials in grid order.
    pub fn resolve(&self) -> Vec<MaterialRef> {
        match self {
            MaterialSet::Paper10 => LIQUIDS.iter().copied().map(MaterialRef::Catalog).collect(),
            MaterialSet::List(refs) => refs.clone(),
        }
    }

    /// Number of classes in the set.
    pub fn len(&self) -> usize {
        match self {
            MaterialSet::Paper10 => LIQUIDS.len(),
            MaterialSet::List(refs) => refs.len(),
        }
    }

    /// `true` when the set has no classes (only constructible in an
    /// invalid campaign; the validator rejects it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical campaign-file token (`paper10`, `Vinegar+Milk`, ...).
    pub fn token(&self) -> String {
        match self {
            MaterialSet::Paper10 => "paper10".to_owned(),
            MaterialSet::List(refs) => {
                let toks: Vec<String> = refs.iter().map(MaterialRef::token).collect();
                toks.join("+")
            }
        }
    }
}

/// What sits between the antennas during a test measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMode {
    /// The labelled material is in place (normal operation).
    Present,
    /// The *next* catalog entry was swapped in while the label claims the
    /// original — a mislabelling / tampering drill.
    Swapped,
    /// The beaker was removed entirely; the target capture sees only the
    /// empty scenario.
    Removed,
}

impl TargetMode {
    /// The canonical campaign-file keyword.
    pub fn token(self) -> &'static str {
        match self {
            TargetMode::Present => "present",
            TargetMode::Swapped => "swapped",
            TargetMode::Removed => "removed",
        }
    }
}

/// One scheduled condition change.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleChange {
    /// Override the fault intensity (multiplier on the hostile plan).
    Fault(f64),
    /// Swap the deployment environment.
    Environment(Environment),
    /// Change what sits between the antennas.
    Target(TargetMode),
    /// Open an antenna-dropout window with the given per-antenna
    /// probability (stacked on top of the scaled hostile plan).
    Dropout(f64),
}

impl ScheduleChange {
    /// A stable ordering rank used to detect duplicate same-trial changes.
    pub fn kind_rank(&self) -> u8 {
        match self {
            ScheduleChange::Fault(_) => 0,
            ScheduleChange::Environment(_) => 1,
            ScheduleChange::Target(_) => 2,
            ScheduleChange::Dropout(_) => 3,
        }
    }

    /// The schedule directive keyword (`fault`, `environment`, ...).
    pub fn keyword(&self) -> &'static str {
        match self {
            ScheduleChange::Fault(_) => "fault",
            ScheduleChange::Environment(_) => "environment",
            ScheduleChange::Target(_) => "target",
            ScheduleChange::Dropout(_) => "dropout",
        }
    }
}

/// One `at <trial> <change>` line: the change applies from test trial
/// `at` (0-based measurement boundary) until the next change of the same
/// kind.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEntry {
    /// First test trial the change applies to.
    pub at: usize,
    /// The condition change.
    pub change: ScheduleChange,
}

/// The scenario grid: every cartesian combination of the axis values
/// below becomes one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Axes {
    /// Material catalogs to discriminate between.
    pub materials: Vec<MaterialSet>,
    /// Deployment environments.
    pub environments: Vec<Environment>,
    /// Tx–Rx link distances in centimetres.
    pub distances_cm: Vec<f64>,
    /// Beaker wall materials.
    pub containers: Vec<ContainerMaterial>,
    /// Beaker diameters in centimetres.
    pub diameters_cm: Vec<f64>,
    /// Packets per capture.
    pub packets: Vec<usize>,
    /// Baseline fault intensities (multiplier on the hostile plan).
    pub intensities: Vec<f64>,
    /// Replica indices: a free axis that changes only the derived cell
    /// seed, for repeating a configuration under fresh randomness.
    pub replicas: Vec<u64>,
}

impl Default for Axes {
    fn default() -> Self {
        Axes {
            materials: vec![MaterialSet::Paper10],
            environments: vec![Environment::Lab],
            distances_cm: vec![200.0],
            containers: vec![ContainerMaterial::Plastic],
            diameters_cm: vec![14.3],
            packets: vec![20],
            intensities: vec![0.0],
            replicas: vec![0],
        }
    }
}

/// A parsed, validated campaign: scalar directives, the scenario grid and
/// the schedule. See the module docs for the canonical-form contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name (stamped into artifact headers and file names).
    pub name: String,
    /// Root seed: every cell's seed is derived from it and the cell index.
    pub seed: u64,
    /// Seed of the hostile fault plan (measurements reseed it per capture).
    pub fault_seed: u64,
    /// Training trials per material per cell.
    pub train: usize,
    /// Test trials per material per cell.
    pub test: usize,
    /// The scenario grid.
    pub axes: Axes,
    /// Scheduled condition changes, ordered by trial.
    pub schedule: Vec<ScheduleEntry>,
}

impl Campaign {
    /// A campaign with every directive at its default, named `name`.
    pub fn with_defaults(name: &str) -> Self {
        Campaign {
            name: name.to_owned(),
            seed: DEFAULT_SEED,
            fault_seed: DEFAULT_FAULT_SEED,
            train: DEFAULT_TRAIN,
            test: DEFAULT_TEST,
            axes: Axes::default(),
            schedule: Vec::new(),
        }
    }

    /// Renders the canonical campaign-file form: every directive and axis
    /// explicit (defaults included), fixed order, no comments. Parsing the
    /// result reproduces `self` exactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "campaign {}", self.name);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "fault_seed {}", self.fault_seed);
        let _ = writeln!(out, "train {}", self.train);
        let _ = writeln!(out, "test {}", self.test);
        let sets: Vec<String> = self.axes.materials.iter().map(MaterialSet::token).collect();
        let _ = writeln!(out, "axis materials = {}", sets.join(", "));
        let envs: Vec<&str> = self
            .axes
            .environments
            .iter()
            .map(|e| environment_token(*e))
            .collect();
        let _ = writeln!(out, "axis environment = {}", envs.join(", "));
        let _ = writeln!(
            out,
            "axis distance_cm = {}",
            join_f64(&self.axes.distances_cm)
        );
        let conts: Vec<&str> = self
            .axes
            .containers
            .iter()
            .map(|c| container_token(*c))
            .collect();
        let _ = writeln!(out, "axis container = {}", conts.join(", "));
        let _ = writeln!(
            out,
            "axis diameter_cm = {}",
            join_f64(&self.axes.diameters_cm)
        );
        let packets: Vec<String> = self.axes.packets.iter().map(|p| p.to_string()).collect();
        let _ = writeln!(out, "axis packets = {}", packets.join(", "));
        let _ = writeln!(out, "axis intensity = {}", join_f64(&self.axes.intensities));
        let replicas: Vec<String> = self.axes.replicas.iter().map(|r| r.to_string()).collect();
        let _ = writeln!(out, "axis replica = {}", replicas.join(", "));
        for entry in &self.schedule {
            let _ = write!(out, "at {} ", entry.at);
            match &entry.change {
                ScheduleChange::Fault(intensity) => {
                    let _ = writeln!(out, "fault {intensity}");
                }
                ScheduleChange::Environment(env) => {
                    let _ = writeln!(out, "environment {}", environment_token(*env));
                }
                ScheduleChange::Target(mode) => {
                    let _ = writeln!(out, "target {}", mode.token());
                }
                ScheduleChange::Dropout(p) => {
                    let _ = writeln!(out, "dropout {p}");
                }
            }
        }
        out
    }
}

fn join_f64(values: &[f64]) -> String {
    let toks: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    toks.join(", ")
}

/// The canonical campaign-file token of an environment.
fn environment_token(env: Environment) -> &'static str {
    match env {
        Environment::EmptyHall => "hall",
        Environment::Lab => "lab",
        Environment::Library => "library",
    }
}

/// The canonical campaign-file token of a container material.
fn container_token(c: ContainerMaterial) -> &'static str {
    match c {
        ContainerMaterial::Glass => "glass",
        ContainerMaterial::Plastic => "plastic",
        ContainerMaterial::Metal => "metal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper10_resolves_to_ten_catalog_liquids() {
        let set = MaterialSet::Paper10;
        assert_eq!(set.len(), 10);
        assert!(!set.is_empty());
        let refs = set.resolve();
        assert_eq!(refs.len(), 10);
        assert_eq!(refs[0], MaterialRef::Catalog(Liquid::Vinegar));
        assert_eq!(set.token(), "paper10");
    }

    #[test]
    fn material_tokens_are_variant_identifiers() {
        assert_eq!(MaterialRef::Catalog(Liquid::PureWater).token(), "PureWater");
        assert_eq!(MaterialRef::Saltwater(1.5).token(), "salt1.5");
        let set = MaterialSet::List(vec![
            MaterialRef::Catalog(Liquid::Milk),
            MaterialRef::Saltwater(3.0),
        ]);
        assert_eq!(set.token(), "Milk+salt3");
    }

    #[test]
    fn render_lists_every_directive_in_fixed_order() {
        let c = Campaign::with_defaults("demo");
        let text = c.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "campaign demo");
        assert_eq!(lines[1], format!("seed {DEFAULT_SEED}"));
        assert_eq!(lines[2], format!("fault_seed {DEFAULT_FAULT_SEED}"));
        assert_eq!(lines[3], "train 4");
        assert_eq!(lines[4], "test 4");
        assert!(lines[5].starts_with("axis materials = paper10"));
        assert!(text.contains("axis replica = 0\n"));
    }
}
