//! Error types for the WiMi pipeline.

use std::error::Error;
use std::fmt;
use wimi_obs::StageId;

/// Errors from feature extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureError {
    /// A capture held no packets or too few to process.
    EmptyCapture,
    /// Captures disagree in antenna/subcarrier dimensions.
    DimensionMismatch,
    /// Fewer than two antennas: the cross-antenna feature needs a pair.
    NeedTwoAntennas,
    /// No phase-wrap count γ produced a physically consistent material
    /// feature — typically the LoS does not penetrate the target (metal
    /// or foil container) or the liquid is in motion.
    NoConsistentFeature {
        /// Best relative dispersion achieved over the γ candidates.
        best_dispersion: f64,
    },
    /// The amplitude ratio collapsed to zero/∞ (blocked or saturated link).
    DegenerateAmplitude,
    /// Screening left too few usable packets to extract from (severe
    /// packet loss or dropout).
    InsufficientPackets {
        /// Packets that survived screening (smaller of the two captures).
        kept: usize,
        /// Minimum the extractor needs.
        needed: usize,
    },
    /// A fixed-pair extraction names an antenna that screening found dead.
    AntennaFailed {
        /// The dead antenna's index in the original capture.
        antenna: usize,
    },
    /// A fixed antenna pair names one antenna twice, or an antenna the
    /// capture does not have.
    InvalidPair {
        /// The configured pair, in ascending order.
        pair: (usize, usize),
        /// Antennas in the capture.
        antennas: usize,
    },
}

impl fmt::Display for FeatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureError::EmptyCapture => write!(f, "capture holds no packets"),
            FeatureError::DimensionMismatch => {
                write!(f, "baseline and target captures have mismatched dimensions")
            }
            FeatureError::NeedTwoAntennas => {
                write!(f, "material feature requires at least two receive antennas")
            }
            FeatureError::NoConsistentFeature { best_dispersion } => write!(
                f,
                "no phase-wrap count gives a consistent material feature \
                 (best dispersion {best_dispersion:.3}); the signal may not \
                 penetrate the target"
            ),
            FeatureError::DegenerateAmplitude => {
                write!(
                    f,
                    "amplitude ratio is degenerate (blocked or saturated link)"
                )
            }
            FeatureError::InsufficientPackets { kept, needed } => write!(
                f,
                "screening left only {kept} usable packets (need {needed})"
            ),
            FeatureError::AntennaFailed { antenna } => {
                write!(f, "antenna {antenna} is dead (all-zero CSI)")
            }
            FeatureError::InvalidPair {
                pair: (a, b),
                antennas,
            } => write!(
                f,
                "antenna pair ({a}, {b}) is not two distinct antennas of a \
                 {antennas}-antenna capture"
            ),
        }
    }
}

impl Error for FeatureError {}

/// What went wrong (or was salvaged around) at one stage.
#[derive(Debug, Clone, PartialEq)]
pub enum IssueKind {
    /// Packets holding NaN/Inf CSI were discarded.
    NonFinitePackets {
        /// How many were dropped.
        dropped: usize,
    },
    /// An antenna was dead (all-zero rows) often enough to be dropped for
    /// the whole measurement.
    DeadAntenna {
        /// The antenna's index in the original capture.
        antenna: usize,
    },
    /// Packets with an all-zero row on a surviving antenna (partial
    /// dropout) were discarded.
    PartialDropout {
        /// How many were dropped.
        dropped: usize,
    },
    /// Screening left fewer packets than the extractor wants.
    ShortCapture {
        /// Packets surviving screening.
        kept: usize,
        /// Minimum the extractor needs.
        needed: usize,
    },
    /// Subcarriers whose amplitudes were unusable across the capture.
    RejectedSubcarriers {
        /// How many were rejected.
        count: usize,
    },
    /// Fewer antenna pairs resolved a wrap count than were attempted.
    PairsUnresolved {
        /// Pairs the extractor attempted.
        attempted: usize,
        /// Pairs that resolved.
        resolved: usize,
    },
    /// The stage failed outright with a feature error.
    Extraction(FeatureError),
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueKind::NonFinitePackets { dropped } => {
                write!(f, "dropped {dropped} non-finite packets")
            }
            IssueKind::DeadAntenna { antenna } => write!(f, "dropped dead antenna {antenna}"),
            IssueKind::PartialDropout { dropped } => {
                write!(f, "dropped {dropped} packets with dead-antenna rows")
            }
            IssueKind::ShortCapture { kept, needed } => {
                write!(f, "only {kept} packets survived screening (want {needed})")
            }
            IssueKind::RejectedSubcarriers { count } => {
                write!(f, "rejected {count} unusable subcarriers")
            }
            IssueKind::PairsUnresolved {
                attempted,
                resolved,
            } => write!(f, "only {resolved}/{attempted} antenna pairs resolved"),
            IssueKind::Extraction(e) => write!(f, "{e}"),
        }
    }
}

/// One issue encountered during a measurement, tagged with the stage that
/// detected it. A measurement can succeed with a non-empty issue list —
/// that is what graceful degradation means.
#[derive(Debug, Clone, PartialEq)]
pub struct StageIssue {
    /// The stage that detected the issue.
    pub stage: StageId,
    /// What happened.
    pub kind: IssueKind,
}

impl StageIssue {
    /// Convenience constructor.
    pub fn new(stage: StageId, kind: IssueKind) -> Self {
        StageIssue { stage, kind }
    }
}

impl fmt::Display for StageIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.stage.name(), self.kind)
    }
}

/// Errors from identification.
#[derive(Debug, Clone, PartialEq)]
pub enum IdentifyError {
    /// Feature extraction failed.
    Feature(FeatureError),
    /// The classifier has not been trained.
    NotTrained,
}

impl fmt::Display for IdentifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentifyError::Feature(e) => write!(f, "feature extraction failed: {e}"),
            IdentifyError::NotTrained => write!(f, "identifier has not been trained"),
        }
    }
}

impl Error for IdentifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IdentifyError::Feature(e) => Some(e),
            IdentifyError::NotTrained => None,
        }
    }
}

impl From<FeatureError> for IdentifyError {
    fn from(e: FeatureError) -> Self {
        IdentifyError::Feature(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        assert!(FeatureError::EmptyCapture
            .to_string()
            .contains("no packets"));
        assert!(FeatureError::NoConsistentFeature {
            best_dispersion: 1.5
        }
        .to_string()
        .contains("1.5"));
        let err: IdentifyError = FeatureError::NeedTwoAntennas.into();
        assert!(err.to_string().contains("two receive antennas"));
        assert!(IdentifyError::NotTrained.to_string().contains("trained"));
    }

    #[test]
    fn identify_error_sources() {
        let err: IdentifyError = FeatureError::EmptyCapture.into();
        assert!(err.source().is_some());
        assert!(IdentifyError::NotTrained.source().is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FeatureError>();
        assert_send_sync::<IdentifyError>();
    }
}
