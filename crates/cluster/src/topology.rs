//! Cluster topology: the node inventory.

/// One physical node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Cores available on the node.
    pub cores: u32,
    /// Memory available on the node, GiB.
    pub memory_gb: u32,
}

/// The cluster inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Node inventory.
    pub nodes: Vec<Node>,
}

impl ClusterSpec {
    /// The paper's distributed testbed: 4 Intel E3 nodes, 32 logical cores
    /// and 64 GiB each (§7.1.1).
    pub fn paper_distributed() -> Self {
        ClusterSpec { nodes: vec![Node { cores: 32, memory_gb: 64 }; 4] }
    }

    /// The paper's single-node Type-III testbed: one Intel E5 node with 8
    /// cores and 24 GiB (§7.1.1).
    pub fn paper_single_node() -> Self {
        ClusterSpec { nodes: vec![Node { cores: 8, memory_gb: 24 }] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_match_section_7() {
        assert_eq!(ClusterSpec::paper_distributed().nodes.len(), 4);
        assert_eq!(ClusterSpec::paper_single_node().nodes[0].memory_gb, 24);
        assert!(ClusterSpec::paper_distributed().nodes.iter().all(|n| n.cores == 32));
    }
}
