//! Deployment scenarios and the end-to-end CSI simulator.
//!
//! A [`Scenario`] describes one physical deployment: environment, link
//! geometry, beaker, hardware profile and channel. A [`Simulator`] realises
//! it (placing scatterers with a seeded RNG) and produces [`CsiCapture`]s,
//! first with the empty beaker (baseline) and then with the liquid poured
//! in — mirroring the paper's measurement protocol (§IV: "we first extract
//! a set of phase and amplitude values as the baseline data when the empty
//! plastic beaker is placed at the LoS link, then pour the tested liquid").

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::channel::{
    free_space_wavenumber, los_response, Environment, MultipathChannel, StandardNormal,
};
use crate::complex::Complex;
use crate::csi::{CsiCapture, CsiPacket, CsiSource};
use crate::fault::FaultPlan;
use crate::geometry::{diffraction_severity, traverse_beaker, AntennaArray, Cylinder, Point, Ray};
use crate::hardware::HardwareProfile;
use crate::material::{
    ContainerMaterial, DebyeModel, Dielectric, Liquid, Permittivity, PropagationConstants,
    SaltwaterConcentration,
};
use crate::ofdm::ChannelSpec;
use crate::units::{Hertz, Meters};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A liquid under test: a name plus its dielectric model.
#[derive(Debug, Clone, PartialEq)]
pub struct LiquidSpec {
    name: String,
    debye: DebyeModel,
}

impl LiquidSpec {
    /// A liquid from the paper's ten-liquid catalog.
    pub fn catalog(liquid: Liquid) -> Self {
        LiquidSpec {
            name: liquid.name().to_owned(),
            debye: liquid.debye(),
        }
    }

    /// A saltwater solution (Fig. 16 experiment).
    pub fn saltwater(c: SaltwaterConcentration) -> Self {
        LiquidSpec {
            name: c.to_string(),
            debye: c.debye(),
        }
    }

    /// A custom liquid from an explicit Debye model.
    pub fn custom(name: impl Into<String>, debye: DebyeModel) -> Self {
        LiquidSpec {
            name: name.into(),
            debye,
        }
    }

    /// The liquid's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying Debye model.
    pub fn debye(&self) -> DebyeModel {
        self.debye
    }
}

impl Dielectric for LiquidSpec {
    fn permittivity(&self, f: Hertz) -> Permittivity {
        self.debye.permittivity(f)
    }
}

impl From<Liquid> for LiquidSpec {
    fn from(l: Liquid) -> Self {
        LiquidSpec::catalog(l)
    }
}

impl From<SaltwaterConcentration> for LiquidSpec {
    fn from(c: SaltwaterConcentration) -> Self {
        LiquidSpec::saltwater(c)
    }
}

/// A cylindrical beaker.
#[derive(Debug, Clone, PartialEq)]
pub struct Beaker {
    /// Outer diameter.
    pub diameter: Meters,
    /// Height (informational; the 2-D model assumes the LoS crosses the
    /// liquid column).
    pub height: Meters,
    /// Wall thickness.
    pub wall_thickness: Meters,
    /// Wall material.
    pub material: ContainerMaterial,
}

impl Beaker {
    /// The paper's default beaker: ⌀ 14.3 cm × 23 cm plastic.
    pub fn paper_default() -> Self {
        Beaker {
            diameter: Meters::from_cm(14.3),
            height: Meters::from_cm(23.0),
            wall_thickness: Meters::from_mm(3.0),
            material: ContainerMaterial::Plastic,
        }
    }

    /// The five beaker diameters of the Fig. 19 size experiment, cm:
    /// 14.3, 11, 8.9, 6.1, 3.2.
    pub const PAPER_DIAMETERS_CM: [f64; 5] = [14.3, 11.0, 8.9, 6.1, 3.2];

    /// Returns a copy with a different diameter.
    ///
    /// # Panics
    ///
    /// Panics if the diameter does not exceed twice the wall thickness.
    pub fn with_diameter(mut self, diameter: Meters) -> Self {
        assert!(
            diameter.value() > 2.0 * self.wall_thickness.value(),
            "diameter must exceed twice the wall thickness"
        );
        self.diameter = diameter;
        self
    }

    /// Returns a copy with a different wall material.
    pub fn with_material(mut self, material: ContainerMaterial) -> Self {
        self.material = material;
        self
    }

    /// Outer radius.
    pub fn radius(&self) -> Meters {
        self.diameter / 2.0
    }
}

/// A complete deployment description.
///
/// Construct with [`Scenario::builder`]. The scenario holds the *empty*
/// deployment; the liquid under test is set on the [`Simulator`] because
/// baseline and target captures share one scenario realisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    channel: ChannelSpec,
    environment: Environment,
    link_distance: Meters,
    n_antennas: usize,
    antenna_spacing: Meters,
    beaker: Beaker,
    target_center: Point,
    hardware: HardwareProfile,
    leakage_floor_db: f64,
    flow_noise: f64,
}

impl Scenario {
    /// Starts building a scenario from the paper's defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The OFDM channel.
    pub fn channel(&self) -> &ChannelSpec {
        &self.channel
    }

    /// The deployment environment.
    pub fn environment(&self) -> Environment {
        self.environment
    }

    /// Transmitter–receiver separation.
    pub fn link_distance(&self) -> Meters {
        self.link_distance
    }

    /// Number of receive antennas.
    pub fn n_antennas(&self) -> usize {
        self.n_antennas
    }

    /// The beaker on the LoS path.
    pub fn beaker(&self) -> &Beaker {
        &self.beaker
    }

    /// The hardware impairment profile.
    pub fn hardware(&self) -> &HardwareProfile {
        &self.hardware
    }

    /// Transmit antenna position (origin).
    fn tx_position(&self) -> Point {
        Point::new(0.0, 0.0)
    }

    /// The receive antenna array.
    fn rx_array(&self) -> AntennaArray {
        AntennaArray::uniform_linear(
            Point::new(self.link_distance.value(), 0.0),
            self.antenna_spacing,
            self.n_antennas,
        )
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    channel: ChannelSpec,
    environment: Environment,
    link_distance: Meters,
    n_antennas: usize,
    antenna_spacing: Meters,
    beaker: Beaker,
    target_offset: Meters,
    hardware: HardwareProfile,
    /// The through-target leakage floor in dB (−10 dB).
    ///
    /// Bulk absorption alone would put 14 cm of water ~130 dB down, yet
    /// measured insertion losses through liquid containers are tens of dB:
    /// energy leaks around and through the target (creeping waves, surface
    /// paths). The floor caps the *common* attenuation across antennas
    /// while leaving the inter-antenna differential — the quantity the
    /// WiMi feature uses — exactly as the paper's Eq. (15)/(17) predict.
    leakage_floor_db: f64,
    flow_noise: f64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            channel: ChannelSpec::intel5300_20mhz_5ghz(),
            environment: Environment::Lab,
            link_distance: Meters(2.0),
            n_antennas: 3,
            antenna_spacing: Meters::from_cm(2.9),
            beaker: Beaker::paper_default(),
            target_offset: Meters::from_cm(1.0),
            hardware: HardwareProfile::default(),
            leakage_floor_db: -10.0,
            flow_noise: 0.0,
        }
    }
}

impl ScenarioBuilder {
    /// Sets the deployment environment (default: lab).
    pub fn environment(&mut self, env: Environment) -> &mut Self {
        self.environment = env;
        self
    }

    /// Sets the transmitter–receiver distance (default: 2 m).
    ///
    /// # Panics
    ///
    /// Panics (on `build`) if not positive.
    pub fn link_distance(&mut self, d: Meters) -> &mut Self {
        self.link_distance = d;
        self
    }

    /// Sets the receive array (default: 3 antennas, 2.9 cm apart — half a
    /// wavelength at 5.24 GHz, the Intel 5300's three-antenna setup). The
    /// spacing sets the chord-length differential `D₁ − D₂` the material
    /// feature rides on.
    pub fn antennas(&mut self, n: usize, spacing: Meters) -> &mut Self {
        self.n_antennas = n;
        self.antenna_spacing = spacing;
        self
    }

    /// Sets the beaker (default: the paper's ⌀ 14.3 cm plastic beaker).
    pub fn beaker(&mut self, beaker: Beaker) -> &mut Self {
        self.beaker = beaker;
        self
    }

    /// Lateral offset of the beaker centre from the LoS axis (default
    /// 1 cm). A small offset is what every physical placement has; it
    /// breaks the symmetric-array degeneracy in which two antenna rays cut
    /// identical chords.
    pub fn target_offset(&mut self, offset: Meters) -> &mut Self {
        self.target_offset = offset;
        self
    }

    /// Sets the hardware impairment profile.
    pub fn hardware(&mut self, hw: HardwareProfile) -> &mut Self {
        self.hardware = hw;
        self
    }

    /// Sets the OFDM channel.
    pub fn channel(&mut self, ch: ChannelSpec) -> &mut Self {
        self.channel = ch;
        self
    }

    /// Sets liquid-motion noise in `[0, 1]` (default 0: static liquid).
    /// Non-zero values model a flowing/moving liquid, the failure mode the
    /// paper's §VI discusses.
    pub fn flow_noise(&mut self, level: f64) -> &mut Self {
        self.flow_noise = level;
        self
    }

    /// Builds the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent: non-positive link distance,
    /// fewer than one antenna, a beaker wider than the link, or a flow
    /// noise level outside `[0, 1]`.
    pub fn build(&self) -> Scenario {
        assert!(
            self.link_distance.value() > 0.0,
            "link distance must be positive"
        );
        assert!(self.n_antennas >= 1, "need at least one receive antenna");
        assert!(
            self.beaker.diameter.value() < self.link_distance.value(),
            "beaker must fit between transmitter and receiver"
        );
        assert!(
            (0.0..=1.0).contains(&self.flow_noise),
            "flow noise must be within [0, 1]"
        );
        Scenario {
            channel: self.channel.clone(),
            environment: self.environment,
            link_distance: self.link_distance,
            n_antennas: self.n_antennas,
            antenna_spacing: self.antenna_spacing,
            beaker: self.beaker.clone(),
            target_center: Point::new(self.link_distance.value() / 2.0, self.target_offset.value()),
            hardware: self.hardware.clone(),
            leakage_floor_db: self.leakage_floor_db,
            flow_noise: self.flow_noise,
        }
    }
}

/// The end-to-end CSI simulator for one realised deployment.
///
/// # Examples
///
/// ```
/// use wimi_phy::material::Liquid;
/// use wimi_phy::scenario::{Scenario, Simulator};
/// use wimi_phy::csi::CsiSource;
///
/// let scenario = Scenario::builder().build();
/// let mut sim = Simulator::new(scenario, 42);
/// let baseline = sim.capture(20);            // empty beaker
/// sim.set_liquid(Some(Liquid::Milk.into())); // pour the milk in
/// let target = sim.capture(20);
/// assert_eq!(baseline.len(), 20);
/// assert_eq!(target.n_antennas(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    scenario: Scenario,
    multipath: MultipathChannel,
    liquid: Option<LiquidSpec>,
    rng: StdRng,
    rays: Vec<Ray>,
    /// Frequency-domain invariants of the realisation: subcarrier
    /// frequencies, LoS responses and multipath path gains.
    band: BandCache,
    /// Cached [`Simulator::compute_through`] result: the LoS response
    /// times the target insertion, `los · ins`, as an antenna-major
    /// `n_antennas · n_subcarriers` plane. Both factors are deterministic
    /// in the scenario and the current liquid, so the product stays valid
    /// until [`Simulator::set_liquid`] clears it; only jitter, ray
    /// perturbation, multipath and hardware impairments are stochastic
    /// per packet.
    through_cache: Option<Vec<Complex>>,
    /// Ray-perturbation spread (amplitude σ, phase σ), hoisted from the
    /// per-packet draw; `None` when the scenario is perturbation-free.
    perturb_sigmas: Option<(f64, f64)>,
    /// Optional fault-injection plan applied to every capture. Faults draw
    /// from their own RNG stream (seeded by the plan and a per-capture
    /// nonce), so setting or clearing a plan never perturbs the base
    /// channel realisation.
    fault: Option<FaultPlan>,
    /// Monotonic capture counter, used as the fault-plan nonce so each
    /// capture under one plan sees an independent, reproducible stream.
    captures_taken: u64,
    /// Where capture spans and counters go; the default observes
    /// nothing and costs nothing on the packet path. Never influences
    /// simulation output.
    obs: wimi_trace::Observer,
    /// Reusable per-packet jitter scratch: the capture loop draws into
    /// this instead of allocating a fresh multiplier vector per packet.
    /// Pure scratch — never read across packets, so it is excluded from
    /// equality/serialisation concerns (the derive on `Clone` copies it,
    /// which is harmless).
    jitter_scratch: crate::channel::PacketJitter,
    /// Reusable per-packet ray-perturbation scratch (one entry per
    /// antenna); same contract as `jitter_scratch`.
    perturb_scratch: Vec<Complex>,
    /// Reusable per-packet phase-corruption scratch for
    /// [`HardwareProfile::apply_planes`]; same contract as
    /// `jitter_scratch`.
    corrupt_scratch: Vec<Complex>,
}

/// The frequency-domain invariants of one realisation, computed once by
/// [`BandCache::build`]. Each depends only on the (immutable) geometry,
/// channel plan and scatterer constellation, so the packet loop only
/// combines them with its per-packet draws.
#[derive(Debug, Clone)]
struct BandCache {
    /// Per-subcarrier centre frequencies.
    freqs: Vec<Hertz>,
    /// Free-space LoS response, antenna-major: entry `a · n_sub + k`.
    los: Vec<Complex>,
    /// Multipath path gains, scatterer-major as
    /// [`MultipathChannel::band_gains`] lays them out: one antenna-major
    /// plane holding the static scatterers' constant sum, then one plane
    /// per dynamic scatterer. Caching these drops the per-scatterer
    /// distance and `cis` work, and the static part of the per-packet
    /// sum, out of the packet loop, which then runs over contiguous rows.
    mp_gains: Vec<Complex>,
}

impl BandCache {
    /// The one builder of the realisation caches, used by
    /// [`Simulator::new`]. Path
    /// lengths are computed once per (antenna, scatterer) and wavenumbers
    /// once per subcarrier; every value is the same expression the
    /// per-frequency formulas evaluate.
    #[expect(
        clippy::indexing_slicing,
        reason = "los is allocated as rx.len() rows of n_sub values, and a < rx.len()"
    )]
    fn build(scenario: &Scenario, multipath: &MultipathChannel) -> Self {
        let n_sub = scenario.channel.num_subcarriers();
        let freqs: Vec<Hertz> = (0..n_sub)
            .map(|k| scenario.channel.subcarrier_freq(k))
            .collect();
        let wavenumbers: Vec<f64> = freqs.iter().map(|&f| free_space_wavenumber(f)).collect();
        let tx = scenario.tx_position();
        let rx = scenario.rx_array();
        let mut los = vec![Complex::ZERO; rx.len() * n_sub];
        for (a, &rx_pos) in rx.iter().enumerate() {
            los_response(
                tx,
                rx_pos,
                &wavenumbers,
                scenario.link_distance,
                &mut los[a * n_sub..(a + 1) * n_sub],
            );
        }
        let mut mp_gains = vec![Complex::ZERO; multipath.band_planes() * rx.len() * n_sub];
        multipath.band_gains(tx, rx.positions(), &wavenumbers, &mut mp_gains);
        BandCache {
            freqs,
            los,
            mp_gains,
        }
    }
}

impl Simulator {
    /// Realises a scenario with a deterministic seed.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let tx = scenario.tx_position();
        let rx = scenario.rx_array();
        let rx_center = Point::new(scenario.link_distance.value(), 0.0);
        let multipath = MultipathChannel::realize(scenario.environment, tx, rx_center, &mut rng);
        let rays: Vec<Ray> = rx.iter().map(|&p| Ray::new(tx, p)).collect();
        let band = BandCache::build(&scenario, &multipath);

        let lambda = scenario.channel.center.wavelength();
        let severity = diffraction_severity(scenario.beaker.diameter, lambda);
        let flow = scenario.flow_noise;
        // Severity and flow noise are non-negative by construction.
        let perturb_sigmas = if severity <= 0.0 && flow <= 0.0 {
            None
        } else {
            Some((0.6 * severity + 0.3 * flow, 2.5 * severity + 1.2 * flow))
        };

        Simulator {
            scenario,
            multipath,
            liquid: None,
            rng,
            rays,
            band,
            through_cache: None,
            perturb_sigmas,
            fault: None,
            captures_taken: 0,
            obs: wimi_trace::Observer::default(),
            jitter_scratch: crate::channel::PacketJitter::empty(),
            perturb_scratch: Vec::new(),
            corrupt_scratch: Vec::new(),
        }
    }

    /// Attaches an observer. Captures then report
    /// [`wimi_obs::StageId::Capture`] spans plus packet/capture counters,
    /// as aggregates and as ordered events against the calling thread's
    /// current task; simulation output is bit-identical either way.
    pub fn set_observer(&mut self, obs: wimi_trace::Observer) {
        self.obs = obs;
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Sets (or clears) the liquid in the beaker. `None` means the empty
    /// baseline beaker. Invalidates the cached insertion factors.
    pub fn set_liquid(&mut self, liquid: Option<LiquidSpec>) {
        self.liquid = liquid;
        self.through_cache = None;
    }

    /// The current liquid, if any.
    pub fn liquid(&self) -> Option<&LiquidSpec> {
        self.liquid.as_ref()
    }

    /// Sets (or clears) the fault-injection plan applied to subsequent
    /// captures. An identity plan (or `None`) leaves captures bit-identical
    /// to the un-faulted simulator; faults never consume the base RNG
    /// stream, so toggling a plan does not shift the channel realisation.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The fault plan currently in force, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Ground-truth liquid chord length for each receive antenna's LoS ray
    /// (the `D_i` of paper Fig. 4). Useful for validating the feature
    /// equations against the geometry.
    pub fn liquid_paths(&self) -> Vec<Meters> {
        let outer = Cylinder::new(self.scenario.target_center, self.scenario.beaker.radius());
        self.rays
            .iter()
            .map(|&ray| {
                traverse_beaker(ray, outer, self.scenario.beaker.wall_thickness).liquid_path
            })
            .collect()
    }

    /// Captures one CSI packet (materialised into the array-of-structs
    /// [`CsiPacket`] shape; the capture loop writes into a [`CsiCapture`]'s
    /// flat planes directly via `Simulator::packet_into`).
    pub fn packet(&mut self) -> CsiPacket {
        let n_ant = self.scenario.n_antennas;
        let n_sub = self.band.freqs.len();
        let mut re = vec![0.0; n_ant * n_sub];
        let mut im = vec![0.0; n_ant * n_sub];
        self.packet_into(&mut re, &mut im);
        let data = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect();
        CsiPacket::new(n_ant, n_sub, data)
    }

    /// Simulates one packet into antenna-major `(re, im)` plane slices of
    /// length `n_antennas · n_subcarriers` — the allocation-free hot path
    /// (jitter and perturbation draws go into simulator-owned scratch).
    /// RNG draw order matches the historical per-packet implementation
    /// exactly: jitter, then one perturbation per antenna, then hardware.
    /// The multipath sum is accumulated into the planes first and the LoS
    /// term `(los · ins) · perturb` added to it, the same operations per
    /// element as summing `through + multipath` in one pass.
    #[expect(
        clippy::indexing_slicing,
        reason = "the planes and the cached through-target plane are all sized n_antennas·n_subcarriers by construction"
    )]
    fn packet_into(&mut self, re: &mut [f64], im: &mut [f64]) {
        let n_ant = self.scenario.n_antennas;
        let n_sub = self.band.freqs.len();

        let mut jitter = std::mem::replace(
            &mut self.jitter_scratch,
            crate::channel::PacketJitter::empty(),
        );
        self.multipath.draw_jitter_into(&mut self.rng, &mut jitter);

        // Per-packet flow/diffraction perturbation, one draw per antenna
        // (same RNG draw order as the uncached implementation).
        let mut perturbs = std::mem::take(&mut self.perturb_scratch);
        perturbs.clear();
        for _ in 0..n_ant {
            let p = self.draw_ray_perturbation();
            perturbs.push(p);
        }

        // Per-antenna LoS-through-target term across subcarriers:
        // invariant until `set_liquid`, so it is computed once and cached
        // (take/put-back keeps the hot path panic-free).
        let through = self
            .through_cache
            .take()
            .unwrap_or_else(|| self.compute_through());

        self.multipath
            .band_response_into(&self.band.mp_gains, &jitter, re, im);
        for (a, &perturb) in perturbs.iter().enumerate() {
            for i in a * n_sub..(a + 1) * n_sub {
                let h = through[i] * perturb + Complex::new(re[i], im[i]);
                re[i] = h.re;
                im[i] = h.im;
            }
        }

        self.scenario.hardware.apply_planes(
            re,
            im,
            n_ant,
            n_sub,
            &mut self.rng,
            &mut self.corrupt_scratch,
        );
        self.through_cache = Some(through);
        self.jitter_scratch = jitter;
        self.perturb_scratch = perturbs;
    }

    /// The LoS response times the target insertion, `los · ins`, as an
    /// antenna-major `n_antennas · n_subcarriers` plane — see
    /// `through_cache`. A packet multiplies each entry by its antenna's
    /// perturbation, and `los · ins · perturb` evaluates as
    /// `(los · ins) · perturb`, so caching the product keeps every bit.
    fn compute_through(&self) -> Vec<Complex> {
        let mut plane = self.compute_target_insertions();
        for (t, &los) in plane.iter_mut().zip(&self.band.los) {
            *t = los * *t;
        }
        plane
    }

    /// Per-antenna, per-subcarrier complex insertion factor of the beaker
    /// (and liquid) on the LoS ray, with the common leakage floor applied,
    /// as an antenna-major `n_antennas · n_subcarriers` plane.
    /// Deterministic in `(scenario, liquid)` — see `through_cache`. The
    /// propagation constants depend only on frequency, so they are
    /// evaluated once per subcarrier and shared by every antenna.
    #[expect(
        clippy::indexing_slicing,
        reason = "plane holds n_rays·n_sub values; a < n_rays, and k and mid = n_sub / 2 lie below the band's non-zero subcarrier count"
    )]
    fn compute_target_insertions(&self) -> Vec<Complex> {
        let n_sub = self.band.freqs.len();
        let n_rays = self.rays.len();

        // Metal blocks penetration entirely: −80 dB and no leakage floor
        // (reflection carries no through-target signature).
        let Some(wall_diel) = self.scenario.beaker.material.dielectric() else {
            return vec![Complex::from_re(1e-4); n_rays * n_sub];
        };

        let outer = Cylinder::new(self.scenario.target_center, self.scenario.beaker.radius());
        let wall = self.scenario.beaker.wall_thickness;
        let traversals: Vec<_> = self
            .rays
            .iter()
            .map(|&ray| traverse_beaker(ray, outer, wall))
            .collect();
        let mut plane = vec![Complex::ZERO; n_rays * n_sub];
        for (k, &f) in self.band.freqs.iter().enumerate() {
            let air = PropagationConstants::air(f);
            let wall_pc = wall_diel.propagation(f);
            let liquid_pc = self.liquid.as_ref().map(|liquid| liquid.propagation(f));
            for (a, trav) in traversals.iter().enumerate() {
                let mut ins = insertion_factor(wall_pc, air, trav.wall_path);
                if let Some(liquid_pc) = liquid_pc {
                    ins *= insertion_factor(liquid_pc, air, trav.liquid_path);
                }
                plane[a * n_sub + k] = ins;
            }
        }

        // Leakage floor: boost the *common* attenuation (geometric mean
        // across antennas, centre subcarrier) up to the floor. This models
        // the energy that creeps around the target; the inter-antenna
        // differential that WiMi measures is untouched.
        let floor = 10f64.powf(self.scenario.leakage_floor_db / 20.0);
        let mid = n_sub / 2;
        let mean_amp = geometric_mean((0..n_rays).map(|a| plane[a * n_sub + mid].abs()));
        if mean_amp < floor && mean_amp > 0.0 {
            let boost = floor / mean_amp;
            for ins in plane.iter_mut() {
                *ins = *ins * boost;
            }
        }
        plane
    }

    /// Per-packet multiplicative perturbation of one LoS ray from liquid
    /// motion (flow noise) and sub-wavelength diffraction.
    fn draw_ray_perturbation(&mut self) -> Complex {
        let Some((amp_sigma, phase_sigma)) = self.perturb_sigmas else {
            return Complex::ONE;
        };
        let g: f64 = 1.0 + amp_sigma * self.rng.sample(StandardNormal);
        let p: f64 = phase_sigma * self.rng.sample(StandardNormal);
        Complex::from_polar(g.max(0.05), p)
    }
}

impl CsiSource for Simulator {
    fn capture(&mut self, n_packets: usize) -> CsiCapture {
        // Clone the handle so the span's borrow does not pin `self` while
        // the packet loop needs it mutably.
        let obs = self.obs.clone();
        let _span = obs.span(wimi_obs::StageId::Capture);
        let n_ant = self.scenario.n_antennas;
        let n_sub = self.band.freqs.len();
        let mut clean = CsiCapture::zeros(n_packets, n_ant, n_sub);
        for m in 0..n_packets {
            let (re, im) = clean.packet_planes_mut(m);
            // The borrow of `clean`'s planes is disjoint from `self`, so
            // the packet loop runs with zero per-packet allocation.
            self.packet_into(re, im);
        }
        let nonce = self.captures_taken;
        self.captures_taken = self.captures_taken.wrapping_add(1);
        obs.count(wimi_obs::CounterId::CapturesTaken, 1);
        obs.count(wimi_obs::CounterId::PacketsSimulated, n_packets as u64);
        match &self.fault {
            Some(plan) if !plan.is_identity() => plan.apply(&clean, nonce),
            _ => clean,
        }
    }
}

/// One-region insertion factor: extra phase `D(β − β_air)` and extra
/// attenuation `e^{−(α − α_air)·D}` relative to the same path in air —
/// exactly paper Eq. (2)–(4).
fn insertion_factor(pc: PropagationConstants, air: PropagationConstants, d: Meters) -> Complex {
    // Path lengths are non-negative; zero means the ray misses the medium.
    if d.value() <= 0.0 {
        return Complex::ONE;
    }
    let extra_phase = (pc.beta - air.beta) * d.value();
    let extra_att = ((air.alpha - pc.alpha) * d.value()).exp();
    Complex::from_polar(extra_att, -extra_phase)
}

fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 {
            return 0.0;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_scenario() -> Scenario {
        let mut b = Scenario::builder();
        b.hardware(HardwareProfile::ideal());
        b.build()
    }

    #[test]
    fn builder_defaults_match_paper_setup() {
        let s = Scenario::builder().build();
        assert_eq!(s.n_antennas(), 3);
        assert_eq!(s.environment(), Environment::Lab);
        assert!((s.link_distance().value() - 2.0).abs() < 1e-12);
        assert!((s.beaker().diameter.to_cm() - 14.3).abs() < 1e-9);
        assert_eq!(s.channel().num_subcarriers(), 30);
    }

    #[test]
    #[should_panic(expected = "beaker must fit")]
    fn build_rejects_beaker_wider_than_link() {
        let mut b = Scenario::builder();
        b.link_distance(Meters(0.1));
        let _ = b.build();
    }

    #[test]
    fn liquid_paths_differ_across_antennas() {
        let sim = Simulator::new(quiet_scenario(), 1);
        let paths = sim.liquid_paths();
        assert_eq!(paths.len(), 3);
        // All rays hit the big beaker...
        assert!(paths.iter().all(|p| p.value() > 0.10));
        // ...but at different chords: the differential WiMi needs.
        let mut sorted = paths.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[2] - sorted[0]).value() > 1e-4);
    }

    #[test]
    fn capture_dimensions() {
        let mut sim = Simulator::new(quiet_scenario(), 2);
        let cap = sim.capture(7);
        assert_eq!(cap.len(), 7);
        assert_eq!(cap.n_antennas(), 3);
        assert_eq!(cap.n_subcarriers(), 30);
    }

    #[test]
    fn same_seed_reproduces_identical_capture() {
        let s = quiet_scenario();
        let mut a = Simulator::new(s.clone(), 99);
        let mut b = Simulator::new(s, 99);
        assert_eq!(a.capture(3), b.capture(3));
    }

    #[test]
    fn liquid_changes_the_csi() {
        let mut sim = Simulator::new(quiet_scenario(), 5);
        let base = sim.capture(1);
        // Re-seed a twin so the multipath jitter draw sequence matches.
        let mut sim2 = Simulator::new(quiet_scenario(), 5);
        sim2.set_liquid(Some(Liquid::PureWater.into()));
        let tar = sim2.capture(1);
        let delta = (base.packet(0).get(0, 15) - tar.packet(0).get(0, 15)).abs();
        assert!(delta > 0.01, "liquid should alter CSI, delta = {delta}");
    }

    #[test]
    fn insertion_differential_matches_equations() {
        // With ideal hardware and no multipath jitter the phase difference
        // between antennas must match (D1−D2)(β_tar−β_free) mod 2π.
        let mut builder = Scenario::builder();
        builder.hardware(HardwareProfile::ideal());
        builder.environment(Environment::EmptyHall);
        let scenario = builder.build();
        let mut sim = Simulator::new(scenario.clone(), 11);
        let paths = sim.liquid_paths();

        sim.set_liquid(Some(Liquid::Oil.into()));
        let f = scenario.channel().subcarrier_freq(15);
        let air = PropagationConstants::air(f);
        let oil = Liquid::Oil.propagation(f);

        // Compare simulated insertion phases directly (through target only:
        // subtract the baseline capture's phase difference), averaging the
        // dynamic multipath out over many packets.
        let mut base_sim = Simulator::new(scenario, 11);
        let base = base_sim.capture(200);
        let tar = sim.capture(200);

        let phase_diff = |cap: &CsiCapture| {
            let (s, c) = cap
                .phase_difference_series(0, 1, 15)
                .into_iter()
                .fold((0.0f64, 0.0f64), |(s, c), a| (s + a.sin(), c + a.cos()));
            s.atan2(c)
        };
        let measured = wrap_pi(phase_diff(&tar) - phase_diff(&base));
        let expected = wrap_pi(-((paths[0] - paths[1]).value() * (oil.beta - air.beta)));
        // Residual static multipath differs between antennas, so allow a
        // modest tolerance.
        assert!(
            (measured - expected).abs() < 0.25,
            "measured {measured}, expected {expected}"
        );
    }

    fn wrap_pi(x: f64) -> f64 {
        let mut y = x % std::f64::consts::TAU;
        if y > std::f64::consts::PI {
            y -= std::f64::consts::TAU;
        }
        if y < -std::f64::consts::PI {
            y += std::f64::consts::TAU;
        }
        y
    }

    #[test]
    fn metal_container_blocks_penetration() {
        let mut builder = Scenario::builder();
        builder.hardware(HardwareProfile::ideal());
        builder.beaker(Beaker::paper_default().with_material(ContainerMaterial::Metal));
        builder.environment(Environment::EmptyHall);
        let mut sim = Simulator::new(builder.build(), 3);
        sim.set_liquid(Some(Liquid::Milk.into()));
        let cap = sim.capture(1);
        // Through component is −80 dB; what is left is weak multipath.
        let amp = cap.packet(0).get(0, 15).abs();
        assert!(amp < 0.3, "metal should block the LoS, amp = {amp}");
    }

    #[test]
    fn leakage_floor_bounds_insertion_loss() {
        let mut builder = Scenario::builder();
        builder.hardware(HardwareProfile::ideal());
        builder.environment(Environment::EmptyHall);
        builder.leakage_floor_db = -14.0;
        let mut sim = Simulator::new(builder.build(), 4);
        sim.set_liquid(Some(Liquid::PureWater.into()));
        let cap = sim.capture(1);
        let amp = cap.packet(0).get(1, 15).abs();
        // Water would be ~130 dB down without the floor; with it, the
        // signal stays within a usable dynamic range.
        assert!(amp > 0.01, "through-signal collapsed: {amp}");
        assert!(amp < 1.0);
    }

    #[test]
    fn small_beaker_adds_diffraction_noise() {
        let mut builder = Scenario::builder();
        builder.hardware(HardwareProfile::ideal());
        builder.environment(Environment::EmptyHall);
        builder.beaker(Beaker::paper_default().with_diameter(Meters::from_cm(3.2)));
        let mut sim = Simulator::new(builder.build(), 6);
        sim.set_liquid(Some(Liquid::PureWater.into()));
        let cap = sim.capture(40);
        let series = cap.amplitude_series(0, 15);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let var = series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / series.len() as f64;
        assert!(
            var.sqrt() / mean > 0.05,
            "diffraction should churn the amplitude"
        );
    }

    #[test]
    fn flow_noise_churns_phase() {
        let mut quiet_b = Scenario::builder();
        quiet_b.hardware(HardwareProfile::ideal());
        quiet_b.environment(Environment::EmptyHall);
        let mut flowing_b = quiet_b.clone();
        flowing_b.flow_noise(0.8);

        let run = |scenario: Scenario| -> f64 {
            let mut sim = Simulator::new(scenario, 8);
            sim.set_liquid(Some(Liquid::Milk.into()));
            let cap = sim.capture(60);
            let series = cap.phase_difference_series(0, 1, 15);
            circular_std(&series)
        };
        let quiet = run(quiet_b.build());
        let flowing = run(flowing_b.build());
        assert!(
            flowing > 2.0 * quiet.max(1e-6),
            "flow noise should raise phase spread (quiet {quiet}, flowing {flowing})"
        );
    }

    fn circular_std(angles: &[f64]) -> f64 {
        let (s, c) = angles
            .iter()
            .fold((0.0, 0.0), |(s, c), &a| (s + a.sin(), c + a.cos()));
        let r = (s * s + c * c).sqrt() / angles.len() as f64;
        (-2.0 * r.max(1e-12).ln()).sqrt()
    }

    #[test]
    fn cached_insertions_match_forced_recompute() {
        // One simulator rides the insertion cache across packets; its twin
        // recomputes the insertions before every packet (`set_liquid`
        // clears them). The captures must be bitwise identical (cache
        // invalidation draws nothing from the RNG).
        let mut builder = Scenario::builder();
        builder.flow_noise(0.3);
        let scenario = builder.build();
        let mut cached = Simulator::new(scenario.clone(), 21);
        let mut uncached = Simulator::new(scenario, 21);
        cached.set_liquid(Some(Liquid::Milk.into()));
        uncached.set_liquid(Some(Liquid::Milk.into()));
        for _ in 0..5 {
            uncached.set_liquid(Some(Liquid::Milk.into()));
            assert_eq!(cached.packet(), uncached.packet());
        }
    }

    /// Verbatim copy of the capture path before the scatterer-major
    /// multipath fold, the `los · ins` cache and the hoisted ziggurat
    /// tables: `BandCache::build`'s per-antenna `path_gains` plane,
    /// subcarrier-major with the static sum folded into each row's first
    /// slot (`fold_static`), and a `packet_into` that sums each element's
    /// row through `response_from_folded`, draws its jitter through
    /// `rng.sample` and applies the old hardware path.
    struct ReferenceCapture {
        mp_gains: Vec<Complex>,
        n_static: usize,
    }

    impl ReferenceCapture {
        fn new(sim: &Simulator) -> Self {
            let scenario = &sim.scenario;
            let wavenumbers: Vec<f64> = sim
                .band
                .freqs
                .iter()
                .map(|&f| free_space_wavenumber(f))
                .collect();
            let tx = scenario.tx_position();
            let rx = scenario.rx_array();
            let scatterers = sim.multipath.scatterers();
            let n_scat = scatterers.len();
            let n_static = scatterers.iter().filter(|s| !s.dynamic).count();
            let row_gains = wavenumbers.len() * n_scat;
            let mut mp_gains = vec![Complex::ZERO; rx.len() * row_gains];
            for (a, &rx_pos) in rx.iter().enumerate() {
                let out = &mut mp_gains[a * row_gains..(a + 1) * row_gains];
                for (i, s) in scatterers.iter().enumerate() {
                    let d =
                        tx.distance_to(s.position).value() + s.position.distance_to(rx_pos).value();
                    for (k, &beta0) in wavenumbers.iter().enumerate() {
                        out[k * n_scat + i] = s.gain * Complex::cis(-beta0 * d);
                    }
                }
            }
            if n_static > 0 {
                for row in mp_gains.chunks_exact_mut(n_scat) {
                    row[0] = row[..n_static]
                        .iter()
                        .fold(Complex::ZERO, |acc, g| acc + *g * Complex::ONE);
                }
            }
            ReferenceCapture { mp_gains, n_static }
        }

        fn draw_jitter(&self, sim: &mut Simulator) -> Vec<Complex> {
            let prof = sim.scenario.environment.profile();
            let mut multipliers = Vec::new();
            for s in sim.multipath.scatterers() {
                let m = if !s.dynamic {
                    Complex::ONE
                } else {
                    let g: f64 = 1.0 + prof.gain_jitter_std * sim.rng.sample(StandardNormal);
                    let p: f64 = prof.phase_jitter_std * sim.rng.sample(StandardNormal);
                    Complex::from_polar(g.max(0.0), p)
                };
                multipliers.push(m);
            }
            multipliers
        }

        fn response_from_folded(&self, gains: &[Complex], jitter: &[Complex]) -> Complex {
            let start = if self.n_static == 0 {
                Complex::ZERO
            } else {
                gains[0]
            };
            gains[self.n_static..]
                .iter()
                .zip(&jitter[self.n_static..])
                .fold(start, |acc, (g, m)| acc + *g * *m)
        }

        fn packet_into(&self, sim: &mut Simulator, re: &mut [f64], im: &mut [f64]) {
            let n_ant = sim.scenario.n_antennas;
            let n_sub = sim.band.freqs.len();
            let n_scat = sim.multipath.scatterers().len();
            let jitter = self.draw_jitter(sim);
            let mut perturbs = Vec::new();
            for _ in 0..n_ant {
                let p = sim.draw_ray_perturbation();
                perturbs.push(p);
            }
            let insertions = sim.compute_target_insertions();
            for (a, &perturb) in perturbs.iter().enumerate() {
                for i in a * n_sub..(a + 1) * n_sub {
                    let through = sim.band.los[i] * insertions[i] * perturb;
                    let gains = &self.mp_gains[i * n_scat..(i + 1) * n_scat];
                    let h = through + self.response_from_folded(gains, &jitter);
                    re[i] = h.re;
                    im[i] = h.im;
                }
            }
            let hardware = sim.scenario.hardware.clone();
            crate::hardware::tests::reference_apply_planes(
                &hardware,
                re,
                im,
                n_ant,
                n_sub,
                &mut sim.rng,
            );
        }

        fn capture(&self, sim: &mut Simulator, n_packets: usize) -> CsiCapture {
            let n_ant = sim.scenario.n_antennas;
            let n_sub = sim.band.freqs.len();
            let mut clean = CsiCapture::zeros(n_packets, n_ant, n_sub);
            for m in 0..n_packets {
                let (re, im) = clean.packet_planes_mut(m);
                self.packet_into(sim, re, im);
            }
            let nonce = sim.captures_taken;
            sim.captures_taken = sim.captures_taken.wrapping_add(1);
            match &sim.fault {
                Some(plan) if !plan.is_identity() => plan.apply(&clean, nonce),
                _ => clean,
            }
        }
    }

    #[test]
    fn hoisted_capture_matches_reference_bitwise() {
        let heavy = HardwareProfile {
            impulse_probability: 0.6,
            outlier_probability: 0.4,
            ..HardwareProfile::default()
        };
        let small = Beaker::paper_default().with_diameter(Meters::from_cm(3.2));
        // (hardware, small beaker and flow noise, hostile faults)
        let cases = [
            (HardwareProfile::default(), false, false),
            (HardwareProfile::ideal(), false, false),
            (heavy.clone(), true, false),
            (HardwareProfile::ideal(), true, false),
            (heavy, true, true),
        ];
        let mut compared = 0usize;
        for env in Environment::ALL {
            for n_ant in 2..=4 {
                for (c, (hardware, perturbed, faulty)) in cases.iter().enumerate() {
                    let mut b = Scenario::builder();
                    b.environment(env)
                        .antennas(n_ant, Meters::from_cm(2.9))
                        .hardware(hardware.clone());
                    if *perturbed {
                        b.beaker(small.clone()).flow_noise(0.4);
                    }
                    let seed = 1000 + 10 * n_ant as u64 + c as u64;
                    let mut sim = Simulator::new(b.build(), seed);
                    let mut twin = sim.clone();
                    let reference = ReferenceCapture::new(&twin);
                    if *faulty {
                        sim.set_fault_plan(Some(FaultPlan::hostile(seed)));
                        twin.set_fault_plan(Some(FaultPlan::hostile(seed)));
                    }
                    assert_eq!(sim.perturb_sigmas.is_some(), *perturbed);
                    for (liquid, n_packets) in [
                        (None, 6),
                        (Some(Liquid::Milk), 7),
                        (Some(Liquid::PureWater), 3),
                        (None, 2),
                    ] {
                        sim.set_liquid(liquid.map(LiquidSpec::from));
                        twin.set_liquid(liquid.map(LiquidSpec::from));
                        let got = sim.capture(n_packets);
                        let want = reference.capture(&mut twin, n_packets);
                        let what = format!("{env} {n_ant} antennas case {c} {liquid:?}");
                        assert_eq!(got.len(), want.len(), "{what}");
                        let ((got_re, got_im), (want_re, want_im)) = (got.planes(), want.planes());
                        assert_eq!(got_re.len(), want_re.len(), "{what}");
                        for (i, (g, w)) in got_re.iter().zip(want_re).enumerate() {
                            assert_eq!(g.to_bits(), w.to_bits(), "{what}: re[{i}]");
                        }
                        for (i, (g, w)) in got_im.iter().zip(want_im).enumerate() {
                            assert_eq!(g.to_bits(), w.to_bits(), "{what}: im[{i}]");
                        }
                        compared += got_re.len();
                    }
                    assert_eq!(sim.rng.gen::<u64>(), twin.rng.gen::<u64>(), "RNG state");
                }
            }
        }
        assert!(compared > 10_000, "compared {compared} components");
    }

    #[test]
    fn set_liquid_invalidates_insertions() {
        // Pouring a different liquid must change the through-target CSI
        // even though the cache was warm from earlier packets.
        let quiet = {
            let mut b = Scenario::builder();
            b.hardware(HardwareProfile::ideal());
            b.environment(Environment::EmptyHall);
            b.build()
        };
        let mut sim = Simulator::new(quiet, 31);
        sim.set_liquid(Some(Liquid::Oil.into()));
        let oil = sim.packet();
        sim.set_liquid(Some(Liquid::PureWater.into()));
        let water = sim.packet();
        let delta = (oil.get(0, 15) - water.get(0, 15)).abs();
        assert!(delta > 0.01, "stale insertion cache: delta = {delta}");
    }

    #[test]
    fn liquidspec_constructors() {
        let a = LiquidSpec::catalog(Liquid::Coke);
        assert_eq!(a.name(), "Coke");
        let b = LiquidSpec::saltwater(SaltwaterConcentration::new(1.2));
        assert!(b.name().contains("1.2"));
        let c = LiquidSpec::custom("mystery", DebyeModel::pure_water());
        assert_eq!(c.name(), "mystery");
        let d: LiquidSpec = Liquid::Milk.into();
        assert_eq!(d.name(), "Milk");
    }
}
