//! Transaction Layer Packets.
//!
//! The model carries real payload bytes end-to-end so that data integrity
//! is testable, and accounts wire overhead exactly as §IV-A1 of the paper
//! does: for every TLP, a 16-byte Transaction Layer header, a 2-byte
//! Data Link Layer sequence number, a 4-byte LCRC, and 1 byte each of
//! start/stop framing — 24 bytes of overhead around up to
//! `max_payload_size` bytes of data.

use bytes::Bytes;
use std::fmt;
use tca_sim::TraceCtx;

/// Index of a device within a [`crate::Fabric`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl fmt::Debug for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// A port index local to one device (e.g. PEACH2's N/E/W/S are 0..4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortIdx(pub u8);

impl fmt::Debug for PortIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Direction of travel on a link. [`Dir::Fwd`] flows from the first endpoint
/// passed to `Fabric::connect` toward the second; [`Dir::Rev`] is the
/// opposite lane. The two directions have independent wires, credits, and
/// statistics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dir {
    /// First connect endpoint → second.
    Fwd = 0,
    /// Second connect endpoint → first.
    Rev = 1,
}

impl Dir {
    /// Both directions, forward first — for iterating a link's lanes.
    pub const ALL: [Dir; 2] = [Dir::Fwd, Dir::Rev];

    /// Array index of this direction (0 or 1).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The opposite direction.
    #[inline]
    pub const fn flip(self) -> Dir {
        match self {
            Dir::Fwd => Dir::Rev,
            Dir::Rev => Dir::Fwd,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dir::Fwd => "fwd",
            Dir::Rev => "rev",
        })
    }
}

/// Transaction tag pairing a non-posted request with its completions.
/// Tags are scoped to the requester device, as on real PCIe.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u16);

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// Fixed per-TLP wire overhead in bytes: 16 (TL header) + 2 (DLL
/// sequence) + 4 (LCRC) + 1 + 1 (framing). This is exactly the overhead
/// used in the paper's peak formula `4 GB/s × 256/(256+16+2+4+1+1)`.
pub const TLP_OVERHEAD_BYTES: u64 = 16 + 2 + 4 + 1 + 1;

/// The kinds of TLP the model exchanges.
///
/// PEACH2 restricts remote traffic to Memory Write Request (RDMA put,
/// §III-F); reads and completions appear only on a node's local bus and on
/// port N. MSI interrupts are modelled as their own posted kind rather than
/// as magic-address writes.
#[derive(Clone, PartialEq, Eq)]
pub enum TlpKind {
    /// Posted memory write carrying data.
    MemWrite {
        /// Destination PCIe address.
        addr: u64,
        /// Payload (at most the link MPS; the fabric asserts this).
        data: Bytes,
    },
    /// Non-posted memory read request.
    MemRead {
        /// Source PCIe address.
        addr: u64,
        /// Requested byte count (at most `max_read_request`).
        len: u32,
        /// Transaction tag, scoped to `requester`.
        tag: Tag,
        /// Device that issued the read and will receive completions.
        requester: DeviceId,
    },
    /// Completion with data, answering a `MemRead`.
    Completion {
        /// Tag of the originating read.
        tag: Tag,
        /// Device the completion routes back to.
        requester: DeviceId,
        /// Byte offset of this completion within the original request.
        offset: u32,
        /// Data slice for this completion.
        data: Bytes,
        /// True on the final completion of the request.
        last: bool,
    },
    /// Message-Signalled Interrupt, routed upstream to the host.
    Msi {
        /// Interrupt vector number.
        vector: u32,
    },
}

/// Credit class of a TLP (PCIe flow-control classes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FcClass {
    /// Posted requests: memory writes, messages.
    Posted,
    /// Non-posted requests: memory reads.
    NonPosted,
    /// Completions.
    Completion,
}

/// One Transaction Layer Packet.
#[derive(PartialEq, Eq)]
pub struct Tlp {
    /// What the packet is.
    pub kind: TlpKind,
    /// Causal span context of the transfer this packet serves. `None`
    /// (the default) when span tracing is disabled; carrying it here is
    /// how a transfer's identity survives every hop, translation, and
    /// completion split on its way across the fabric.
    pub span: Option<TraceCtx>,
}

// Clone is written out (not derived) so `tca-prof` can account every TLP
// duplication: clones copy the payload handle and span context, and their
// count per hop is one of the host-cost signals the profiler reports.
impl Clone for Tlp {
    fn clone(&self) -> Tlp {
        crate::prof::count_tlp_clone();
        Tlp {
            kind: self.kind.clone(),
            span: self.span,
        }
    }
}

impl Tlp {
    /// Posted write of `data` to `addr`.
    pub fn write(addr: u64, data: impl Into<Bytes>) -> Tlp {
        let data = data.into();
        assert!(!data.is_empty(), "zero-length MemWrite");
        crate::prof::count_tlp_new();
        Tlp {
            kind: TlpKind::MemWrite { addr, data },
            span: None,
        }
    }

    /// Read request for `len` bytes at `addr`.
    pub fn read(addr: u64, len: u32, tag: Tag, requester: DeviceId) -> Tlp {
        assert!(len > 0, "zero-length MemRead");
        crate::prof::count_tlp_new();
        Tlp {
            kind: TlpKind::MemRead {
                addr,
                len,
                tag,
                requester,
            },
            span: None,
        }
    }

    /// Completion carrying `data` for (`requester`, `tag`).
    pub fn completion(
        tag: Tag,
        requester: DeviceId,
        offset: u32,
        data: impl Into<Bytes>,
        last: bool,
    ) -> Tlp {
        crate::prof::count_tlp_new();
        Tlp {
            kind: TlpKind::Completion {
                tag,
                requester,
                offset,
                data: data.into(),
                last,
            },
            span: None,
        }
    }

    /// MSI with the given vector.
    pub fn msi(vector: u32) -> Tlp {
        crate::prof::count_tlp_new();
        Tlp {
            kind: TlpKind::Msi { vector },
            span: None,
        }
    }

    /// Attaches (or clears) the causal span context, builder style.
    pub fn with_span(mut self, span: Option<TraceCtx>) -> Tlp {
        self.span = span;
        self
    }

    /// Payload byte count (0 for reads and MSIs).
    pub fn payload_len(&self) -> u64 {
        match &self.kind {
            TlpKind::MemWrite { data, .. } | TlpKind::Completion { data, .. } => data.len() as u64,
            TlpKind::MemRead { .. } | TlpKind::Msi { .. } => 0,
        }
    }

    /// Bytes the packet occupies on the wire, including all protocol
    /// overhead (§IV-A1 arithmetic).
    pub fn wire_bytes(&self) -> u64 {
        TLP_OVERHEAD_BYTES + self.payload_len()
    }

    /// Flow-control class.
    pub fn fc_class(&self) -> FcClass {
        match &self.kind {
            TlpKind::MemWrite { .. } | TlpKind::Msi { .. } => FcClass::Posted,
            TlpKind::MemRead { .. } => FcClass::NonPosted,
            TlpKind::Completion { .. } => FcClass::Completion,
        }
    }

    /// Data credits consumed (one per 16-byte unit, rounded up).
    pub fn data_credits(&self) -> u32 {
        (self.payload_len().div_ceil(16)) as u32
    }

    /// FNV-1a content digest of the packet: [`TlpKind::digest`] (the span
    /// context is observability metadata, not packet identity).
    pub fn digest(&self) -> u64 {
        self.kind.digest()
    }

    /// Target address for address-routed kinds, `None` for ID-routed
    /// completions and MSIs.
    pub fn route_addr(&self) -> Option<u64> {
        match &self.kind {
            TlpKind::MemWrite { addr, .. } => Some(*addr),
            TlpKind::MemRead { addr, .. } => Some(*addr),
            TlpKind::Completion { .. } | TlpKind::Msi { .. } => None,
        }
    }
}

impl TlpKind {
    /// FNV-1a content digest over the packet's kind, header fields, and
    /// payload bytes — the flight recorder's packet identity. Two TLPs
    /// digest equal iff they would be indistinguishable on the wire
    /// (span context excluded: identity is *what* is sent, not the
    /// observability metadata riding along), so a run-to-run diff catches
    /// payload corruption even when every timestamp agrees.
    pub fn digest(&self) -> u64 {
        let mut h = tca_sim::Fnv64::new();
        match self {
            TlpKind::MemWrite { addr, data } => {
                h.update(&[0]).write_u64(*addr).update(data);
            }
            TlpKind::MemRead {
                addr,
                len,
                tag,
                requester,
            } => {
                h.update(&[1])
                    .write_u64(*addr)
                    .write_u64(u64::from(*len))
                    .write_u64(u64::from(tag.0))
                    .write_u64(u64::from(requester.0));
            }
            TlpKind::Completion {
                tag,
                requester,
                offset,
                data,
                last,
            } => {
                h.update(&[2])
                    .write_u64(u64::from(tag.0))
                    .write_u64(u64::from(requester.0))
                    .write_u64(u64::from(*offset))
                    .update(&[u8::from(*last)])
                    .update(data);
            }
            TlpKind::Msi { vector } => {
                h.update(&[3]).write_u64(u64::from(*vector));
            }
        }
        h.finish()
    }
}

// The packet's label is its kind's: spans ride along unprinted, and a
// payload prints as its length only, so a label never grows with the data.
impl fmt::Debug for TlpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TlpKind::MemWrite { addr, data } => {
                write!(f, "MemWr[{:#x} +{}B]", addr, data.len())
            }
            TlpKind::MemRead {
                addr,
                len,
                tag,
                requester,
            } => write!(f, "MemRd[{addr:#x} {len}B {tag:?} by {requester:?}]"),
            TlpKind::Completion {
                tag,
                requester,
                offset,
                data,
                last,
            } => write!(
                f,
                "Cpl[{tag:?}->{requester:?} off={offset} {}B{}]",
                data.len(),
                if *last { " last" } else { "" }
            ),
            TlpKind::Msi { vector } => write!(f, "Msi[{vector}]"),
        }
    }
}

impl fmt::Debug for Tlp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.kind, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_matches_paper_formula() {
        assert_eq!(TLP_OVERHEAD_BYTES, 24);
        let tlp = Tlp::write(0x1000, vec![0u8; 256]);
        assert_eq!(tlp.wire_bytes(), 280);
    }

    #[test]
    fn payload_lengths() {
        assert_eq!(Tlp::write(0, vec![1, 2, 3]).payload_len(), 3);
        assert_eq!(Tlp::read(0, 512, Tag(1), DeviceId(0)).payload_len(), 0);
        assert_eq!(Tlp::msi(3).payload_len(), 0);
        assert_eq!(
            Tlp::completion(Tag(1), DeviceId(0), 0, vec![0; 128], true).payload_len(),
            128
        );
    }

    #[test]
    fn fc_classes() {
        assert_eq!(Tlp::write(0, vec![1]).fc_class(), FcClass::Posted);
        assert_eq!(Tlp::msi(0).fc_class(), FcClass::Posted);
        assert_eq!(
            Tlp::read(0, 4, Tag(0), DeviceId(0)).fc_class(),
            FcClass::NonPosted
        );
        assert_eq!(
            Tlp::completion(Tag(0), DeviceId(0), 0, vec![1], true).fc_class(),
            FcClass::Completion
        );
    }

    #[test]
    fn data_credits_round_up() {
        assert_eq!(Tlp::write(0, vec![0; 1]).data_credits(), 1);
        assert_eq!(Tlp::write(0, vec![0; 16]).data_credits(), 1);
        assert_eq!(Tlp::write(0, vec![0; 17]).data_credits(), 2);
        assert_eq!(Tlp::write(0, vec![0; 256]).data_credits(), 16);
        assert_eq!(Tlp::read(0, 512, Tag(0), DeviceId(0)).data_credits(), 0);
    }

    #[test]
    fn route_addr_only_for_address_routed() {
        assert_eq!(Tlp::write(0xabc, vec![1]).route_addr(), Some(0xabc));
        assert_eq!(
            Tlp::read(0xdef, 4, Tag(0), DeviceId(0)).route_addr(),
            Some(0xdef)
        );
        assert_eq!(
            Tlp::completion(Tag(0), DeviceId(1), 0, vec![1], true).route_addr(),
            None
        );
        assert_eq!(Tlp::msi(0).route_addr(), None);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_write_rejected() {
        let _ = Tlp::write(0, Vec::<u8>::new());
    }

    #[test]
    fn digest_separates_content_not_span() {
        let a = Tlp::write(0x1000, vec![1, 2, 3]);
        let b = Tlp::write(0x1000, vec![1, 2, 3]);
        assert_eq!(a.digest(), b.digest(), "equal content, equal digest");
        assert_ne!(
            a.digest(),
            Tlp::write(0x1000, vec![1, 2, 4]).digest(),
            "payload corruption must change the digest"
        );
        assert_ne!(
            a.digest(),
            Tlp::write(0x1008, vec![1, 2, 3]).digest(),
            "address must change the digest"
        );
        assert_ne!(
            Tlp::read(0, 4, Tag(1), DeviceId(0)).digest(),
            Tlp::read(0, 4, Tag(2), DeviceId(0)).digest()
        );
        assert_ne!(Tlp::msi(1).digest(), Tlp::msi(2).digest());
        // Kinds never collide on the discriminant byte.
        assert_ne!(
            Tlp::write(0, vec![0]).digest(),
            Tlp::completion(Tag(0), DeviceId(0), 0, vec![0], false).digest()
        );
    }
}
