//! Table 1: the state-of-the-art comparison matrix, as static data.
//!
//! The paper's related-work table is qualitative; encoding it here lets the
//! benchmark harness reprint it verbatim (`table1_related_matrix`).

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelatedSystem {
    /// System name.
    pub name: &'static str,
    /// Supports CPU processing nodes.
    pub cpu: bool,
    /// Supports GPU processing nodes.
    pub gpu: bool,
    /// Deployable over a distributed cluster.
    pub distributed_training: bool,
    /// Tunes hyperparameters.
    pub tunes_hyper: bool,
    /// Tunes system parameters.
    pub tunes_system: bool,
    /// Natively supported DL frameworks.
    pub frameworks: &'static [&'static str],
    /// Open source.
    pub open_source: bool,
}

/// The sixteen rows of Table 1, in the paper's order.
pub fn related_systems() -> &'static [RelatedSystem] {
    const T: bool = true;
    const F: bool = false;
    &[
        RelatedSystem {
            name: "Astra",
            cpu: F,
            gpu: T,
            distributed_training: F,
            tunes_hyper: T,
            tunes_system: T,
            frameworks: &["TensorFlow", "Keras"],
            open_source: F,
        },
        RelatedSystem {
            name: "AutoKeras",
            cpu: T,
            gpu: T,
            distributed_training: F,
            tunes_hyper: T,
            tunes_system: T,
            frameworks: &["TensorFlow", "Keras"],
            open_source: T,
        },
        RelatedSystem {
            name: "ByteScheduler",
            cpu: T,
            gpu: T,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: F,
            frameworks: &["TensorFlow", "Keras", "PyTorch", "MXNet"],
            open_source: T,
        },
        RelatedSystem {
            name: "GRNN",
            cpu: T,
            gpu: T,
            distributed_training: F,
            tunes_hyper: T,
            tunes_system: F,
            frameworks: &["TensorFlow", "PyTorch"],
            open_source: F,
        },
        RelatedSystem {
            name: "HyperDrive",
            cpu: T,
            gpu: T,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: T,
            frameworks: &["TensorFlow", "Keras"],
            open_source: F,
        },
        RelatedSystem {
            name: "Hop",
            cpu: T,
            gpu: F,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: F,
            frameworks: &["TensorFlow"],
            open_source: F,
        },
        RelatedSystem {
            name: "Optimus",
            cpu: T,
            gpu: T,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: F,
            frameworks: &["MXNet"],
            open_source: F,
        },
        RelatedSystem {
            name: "Orion",
            cpu: T,
            gpu: F,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: F,
            frameworks: &["TensorFlow"],
            open_source: T,
        },
        RelatedSystem {
            name: "Parallax",
            cpu: T,
            gpu: T,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: F,
            frameworks: &["TensorFlow"],
            open_source: T,
        },
        RelatedSystem {
            name: "PipeDream",
            cpu: F,
            gpu: T,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: F,
            frameworks: &["TensorFlow", "MXNet"],
            open_source: T,
        },
        RelatedSystem {
            name: "SageMaker",
            cpu: T,
            gpu: T,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: T,
            frameworks: &[],
            open_source: F,
        },
        RelatedSystem {
            name: "STRADS",
            cpu: T,
            gpu: F,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: F,
            frameworks: &[],
            open_source: T,
        },
        RelatedSystem {
            name: "STRADS-AP",
            cpu: T,
            gpu: F,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: T,
            frameworks: &["TensorFlow"],
            open_source: F,
        },
        RelatedSystem {
            name: "Tune",
            cpu: T,
            gpu: T,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: T,
            frameworks: &["TensorFlow", "Keras"],
            open_source: T,
        },
        RelatedSystem {
            name: "Vizier",
            cpu: T,
            gpu: T,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: T,
            frameworks: &[],
            open_source: F,
        },
        RelatedSystem {
            name: "PipeTune",
            cpu: T,
            gpu: F,
            distributed_training: T,
            tunes_hyper: T,
            tunes_system: T,
            frameworks: &["BigDL", "TensorFlow", "Keras"],
            open_source: T,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_rows_ending_with_pipetune() {
        let rows = related_systems();
        assert_eq!(rows.len(), 16);
        assert_eq!(rows.last().unwrap().name, "PipeTune");
    }

    #[test]
    fn pipetune_is_the_only_cpu_system_tuning_both_with_bigdl() {
        let rows = related_systems();
        let pt = rows.last().unwrap();
        assert!(pt.tunes_hyper && pt.tunes_system && pt.open_source);
        assert!(pt.frameworks.contains(&"BigDL"));
        // No other row supports BigDL.
        assert!(rows[..15].iter().all(|r| !r.frameworks.contains(&"BigDL")));
    }
}
