//! The bulk **data plane**: how payload bytes move between nodes.
//!
//! The paper's central claim is that object *data* moves over the
//! disaggregated memory fabric while only small control messages ride
//! the RPC channel. Every bulk payload *read* in the distributed store —
//! remote reads after a `GET_MANY` descriptor negotiation, spill and
//! replica propagation — goes through [`MappedFabric`]: the bytes are
//! read from the mapped `tfsim` segment named by the negotiated
//! `(segment, offset, len)` descriptor. **A read never moves a payload
//! byte in an rpclite frame** (the `proto` tests pin every
//! descriptor-carrying frame to O(1) in object size).
//!
//! A store never *writes* another node's memory: the plane has no write
//! half. A forwarded create is written by the client through its own
//! fabric mapping; a forwarded small put (up to `plasma::INLINE_PUT_MAX`
//! bytes) carries its bytes in the `CREATE_AT` and the owner writes them
//! into its own segment — the paper's Fig. 3 rule, "don't build the
//! store-to-store channel on remote writes".
//!
//! The descriptor lifecycle: **negotiate** (a control-plane RPC pins the
//! object and returns its descriptor) → **map** (attach the segment) →
//! **read** (bulk bytes move) → **release** (a control-plane RPC drops
//! the pin).

use obs::{Counter, Registry};
use plasma::{ObjectLocation, PlasmaError};
use std::sync::Arc;
use tfsim::NodeId;

/// The zero-copy data plane of the store on one node: payloads move by
/// attaching the descriptor's `tfsim` segment and reading it directly.
#[derive(Debug)]
pub struct MappedFabric {
    fabric: tfsim::Fabric,
    node: NodeId,
    /// Payload bytes moved over mapped segments
    /// (`disagg.fabric.mapped_payload_bytes`).
    mapped_payload_bytes: Arc<Counter>,
}

impl MappedFabric {
    /// The data plane for the store on `node`, counting into `registry`.
    pub fn new(fabric: tfsim::Fabric, node: NodeId, registry: &Registry) -> Self {
        MappedFabric {
            fabric,
            node,
            mapped_payload_bytes: registry.counter("disagg.fabric.mapped_payload_bytes"),
        }
    }

    /// Read the `loc.total_size()` payload bytes of the (pinned) object
    /// described by `loc`. The caller negotiated the descriptor over the
    /// control plane and guarantees the pin holds until this returns.
    pub fn pull(&self, loc: &ObjectLocation) -> Result<Vec<u8>, PlasmaError> {
        let mapping = self.fabric.attach(self.node, loc.seg)?;
        let bytes = mapping.view(loc.offset, loc.total_size())?.read_all()?;
        self.mapped_payload_bytes.add(bytes.len() as u64);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma::ObjectId;

    #[test]
    fn moves_bytes_through_the_mapped_segment_and_counts_them() {
        let fabric = tfsim::Fabric::virtual_thymesisflow();
        let owner = fabric.register_node();
        let reader = fabric.register_node();
        let key = fabric.donate(owner, 1 << 16).unwrap();
        let registry = Registry::new();
        let dp = MappedFabric::new(fabric.clone(), reader, &registry);

        let target = ObjectLocation {
            id: ObjectId::from_name("dp"),
            seg: key,
            offset: 128,
            data_size: 40,
            metadata_size: 8,
        };
        let written = fabric.attach(owner, key).unwrap();
        written.write_at(target.offset, &[5u8; 48]).unwrap();
        let got = dp.pull(&target).unwrap();
        assert_eq!(got, vec![5u8; 48]);
        assert_eq!(
            registry
                .snapshot()
                .counter("disagg.fabric.mapped_payload_bytes"),
            48
        );
    }
}
