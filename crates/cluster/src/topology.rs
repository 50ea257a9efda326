//! Cluster topology and resource accounting.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::SystemConfig;

/// Identifier of a node within a [`ClusterSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// One physical node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Cores available on the node.
    pub cores: u32,
    /// Memory available on the node, GiB.
    pub memory_gb: u32,
}

/// The cluster inventory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Node inventory; index is the [`NodeId`].
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

/// Error type for allocation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No node can satisfy the request even when idle.
    RequestTooLarge {
        /// The request that cannot fit anywhere.
        request: SystemConfig,
    },
    /// The given allocation id is unknown (double release).
    UnknownAllocation {
        /// The offending id.
        id: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::RequestTooLarge { request } => {
                write!(f, "request {request} exceeds every node's capacity")
            }
            ClusterError::UnknownAllocation { id } => write!(f, "unknown allocation id {id}"),
        }
    }
}

impl Error for ClusterError {}

/// A live resource grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Unique grant id (used for release).
    pub id: u64,
    /// Node the grant landed on.
    pub node: NodeId,
    /// Resources granted.
    pub config: SystemConfig,
}

/// Core/memory accountant with oversubscription.
///
/// PipeTune trials always get *placed* (the paper pins co-located jobs to the
/// same cores in Fig. 5 and §7.4); what changes under load is the
/// **contention factor**: the ratio of cores demanded to cores present on a
/// node, which the [`crate::CostModel`] turns into slowdown.
#[derive(Debug, Clone)]
pub struct Allocator {
    spec: ClusterSpec,
    allocated_cores: Vec<u64>,
    allocated_memory: Vec<u64>,
    grants: HashMap<u64, Allocation>,
    next_id: u64,
}

impl Allocator {
    /// Creates an allocator for a cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        let n = spec.nodes.len();
        Allocator {
            spec,
            allocated_cores: vec![0; n],
            allocated_memory: vec![0; n],
            grants: HashMap::new(),
            next_id: 0,
        }
    }

    /// The cluster inventory.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Places a request on the least-loaded node (by core oversubscription
    /// ratio), allowing oversubscription.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::RequestTooLarge`] when no node could satisfy
    /// the request even when idle (the request exceeds physical capacity).
    pub fn allocate(&mut self, request: SystemConfig) -> Result<Allocation, ClusterError> {
        let fits_somewhere = self
            .spec
            .nodes
            .iter()
            .any(|n| request.cores <= n.cores && request.memory_gb <= n.memory_gb);
        if !fits_somewhere {
            return Err(ClusterError::RequestTooLarge { request });
        }
        // Least-loaded eligible node.
        let node = (0..self.spec.nodes.len())
            .filter(|&i| {
                request.cores <= self.spec.nodes[i].cores
                    && request.memory_gb <= self.spec.nodes[i].memory_gb
            })
            .min_by(|&a, &b| {
                self.load(NodeId(a))
                    .partial_cmp(&self.load(NodeId(b)))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("fits_somewhere guarantees a candidate");
        self.allocated_cores[node] += u64::from(request.cores);
        self.allocated_memory[node] += u64::from(request.memory_gb);
        let grant = Allocation { id: self.next_id, node: NodeId(node), config: request };
        self.grants.insert(grant.id, grant);
        self.next_id += 1;
        Ok(grant)
    }

    /// Releases a grant.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownAllocation`] on double release.
    pub fn release(&mut self, id: u64) -> Result<(), ClusterError> {
        let grant = self.grants.remove(&id).ok_or(ClusterError::UnknownAllocation { id })?;
        let n = grant.node.0;
        self.allocated_cores[n] -= u64::from(grant.config.cores);
        self.allocated_memory[n] -= u64::from(grant.config.memory_gb);
        Ok(())
    }

    /// Core demand / capacity ratio for a node (0.0 = idle).
    pub fn load(&self, node: NodeId) -> f64 {
        let cap = self.spec.nodes[node.0].cores.max(1) as f64;
        self.allocated_cores[node.0] as f64 / cap
    }

    /// Contention factor ≥ 1.0 used by the cost model: demand/capacity
    /// clamped below at 1 (an undersubscribed node runs at full speed).
    pub fn contention(&self, node: NodeId) -> f64 {
        self.load(node).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Allocator {
        Allocator::new(ClusterSpec { nodes: vec![Node { cores: 8, memory_gb: 16 }; 2] })
    }

    #[test]
    fn allocation_balances_across_nodes() {
        let mut a = small_cluster();
        let g1 = a.allocate(SystemConfig::new(4, 4)).unwrap();
        let g2 = a.allocate(SystemConfig::new(4, 4)).unwrap();
        assert_ne!(g1.node, g2.node, "second grant should go to the idle node");
    }

    #[test]
    fn oversubscription_raises_contention() {
        let mut a = Allocator::new(ClusterSpec { nodes: vec![Node { cores: 8, memory_gb: 16 }] });
        let node = NodeId(0);
        assert_eq!(a.contention(node), 1.0);
        for _ in 0..3 {
            a.allocate(SystemConfig::new(8, 4)).unwrap();
        }
        assert_eq!(a.contention(node), 3.0);
    }

    #[test]
    fn release_restores_capacity_and_rejects_double_free() {
        let mut a = small_cluster();
        let g = a.allocate(SystemConfig::new(8, 8)).unwrap();
        assert_eq!(a.grants.len(), 1);
        a.release(g.id).unwrap();
        assert!(a.grants.is_empty());
        assert_eq!(a.load(g.node), 0.0);
        assert!(matches!(a.release(g.id), Err(ClusterError::UnknownAllocation { .. })));
    }

    #[test]
    fn impossible_request_is_rejected() {
        let mut a = small_cluster();
        let err = a.allocate(SystemConfig::new(64, 4)).unwrap_err();
        assert!(matches!(err, ClusterError::RequestTooLarge { .. }));
    }

    #[test]
    fn paper_specs_match_section_7() {
        assert_eq!(ClusterSpec::paper_distributed().nodes.len(), 4);
        assert_eq!(ClusterSpec::paper_single_node().nodes[0].memory_gb, 24);
        assert!(ClusterSpec::paper_distributed().nodes.iter().all(|n| n.cores == 32));
    }
}
