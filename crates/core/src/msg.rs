//! Coherence protocol messages.
//!
//! All protocol traffic — L1 requests, directory commands, data transfers,
//! acknowledgements and memory-controller messages — travels as [`Msg`]
//! values routed over the mesh by the machine, which records each one in
//! the Fig. 8 traffic statistics.

use std::hash::{Hash, Hasher};

use ghostwriter_mem::{BlockAddr, BlockData};
use ghostwriter_noc::MessageKind;

/// A protocol endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Endpoint {
    /// Private L1 cache of core `i` (tile `i`).
    L1(usize),
    /// Home L2 bank / directory slice `b` (tile `b`).
    Dir(usize),
    /// Memory controller `m` (at mesh corner `m`).
    Mem(usize),
}

/// What permission a directory data/ack response grants.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Grant {
    /// Read-only copy; others may share.
    Shared,
    /// Read-only copy, no other sharers (silent upgrade to M allowed).
    Exclusive,
    /// Read-write copy.
    Modified,
    /// Read-only copy designated as the clean forwarder (MESIF `F`):
    /// the holder answers future `FwdGets` for the block.
    Forward,
}

/// What the former owner did with its copy when answering a
/// `FwdGets`/`FwdGetx` — the directory uses this to rebuild its sharer
/// tracking without a second round trip.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum OwnerXfer {
    /// The owner invalidated (FwdGetx) or answered from its writeback
    /// buffer — it holds no copy.
    Dropped,
    /// The owner downgraded to a clean Shared copy (MESI/MSI FwdGets).
    ToShared,
    /// The owner kept a dirty Owned copy (MOESI/MOSI FwdGets): the
    /// directory must keep it the distinguished owner and may elide the
    /// L2 fill — the dirty-sharing writeback elision.
    ToOwned,
}

/// Transport envelope riding on every message: a per-transaction
/// sequence number (duplicate/stale-reply suppression) and a taint bit
/// (the fault injector's stand-in for a detectable ECC/checksum
/// mismatch on the carried block).
///
/// With recovery disabled every message carries the default tag
/// (`seq = 0`, `tainted = false`), so hashes, fingerprints and the
/// checker's state partition are exactly what they were before the tag
/// existed as a *varying* quantity — zero-fault runs stay byte-stable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub struct WireTag {
    /// Requestor-assigned transaction sequence number (0 = untagged).
    pub seq: u32,
    /// Set when the fault injector corrupted the carried data in a way
    /// the receiver can detect (models an ECC/checksum mismatch).
    pub tainted: bool,
}

impl WireTag {
    /// A tag carrying only a sequence number.
    pub fn seq(seq: u32) -> Self {
        WireTag {
            seq,
            tainted: false,
        }
    }
}

/// Opaque index of an in-flight data block in a [`DataPool`].
///
/// A `DataRef` is a *transport* handle, not part of the logical message:
/// two runs (or two checker states) may assign different slot indices to
/// the same logical traffic. Anything that compares or hashes messages
/// must resolve the ref to its block first — see
/// `CtlMsg::hash_logical`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct DataRef(u32);

/// Side pool of the 64-byte blocks carried by in-flight data messages.
///
/// The control-plane form of a message ([`CtlMsg`]) stores a [`DataRef`]
/// instead of embedding the block, so the message arena and the event
/// queue move small fixed-size records and zero-data messages (INV,
/// acks, forwards) are genuinely zero-data. Slots are recycled the
/// moment a message is resolved back to its logical form, so the pool
/// never outgrows the peak number of in-flight data-carrying messages.
#[derive(Clone, Debug, Default)]
pub struct DataPool {
    slots: Vec<Option<BlockData>>,
    free: Vec<u32>,
}

impl DataPool {
    /// Interns `data`, returning its slot handle.
    pub fn alloc(&mut self, data: BlockData) -> DataRef {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(data);
                DataRef(slot)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("data pool overflow");
                self.slots.push(Some(data));
                DataRef(slot)
            }
        }
    }

    /// Consumes the slot, returning its block and recycling the slot.
    pub fn take(&mut self, r: DataRef) -> BlockData {
        let data = self.slots[r.0 as usize]
            .take()
            .expect("data slot consumed twice");
        self.free.push(r.0);
        data
    }

    /// Reads the slot without consuming it (fingerprinting, peeking).
    pub fn get(&self, r: DataRef) -> &BlockData {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("data slot already consumed")
    }

    /// Number of live (unresolved) data blocks.
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (the pool's high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Message bodies, generic over how block data is carried: the logical
/// form ([`Payload`]) embeds the 64-byte block inline; the control-plane
/// form ([`PayloadCtl`]) references a [`DataPool`] slot instead. The
/// comments give the sender → receiver direction.
#[derive(Clone, Debug, Hash)]
pub enum PayloadOf<D> {
    // ---- L1 → directory requests ----
    /// Read-share request (load miss).
    Gets,
    /// Read-exclusive request (store miss).
    Getx,
    /// S → M permission upgrade (store hit on a shared block).
    Upgrade,
    /// Clean shared-copy eviction notice (no ack).
    PutS,
    /// Clean exclusive-copy eviction (acked with `WbAck`).
    PutE,
    /// Dirty writeback (acked with `WbAck`).
    PutM { data: D },

    // ---- directory → L1 commands ----
    /// Invalidate your copy and ack the directory.
    Inv,
    /// You own this block: send the data to the directory and downgrade
    /// to Shared.
    FwdGets,
    /// You own this block: send the data to the directory and invalidate.
    FwdGetx,
    /// Demand data with a permission grant.
    Data { data: D, grant: Grant },
    /// Your `Upgrade` succeeded: you now hold M.
    UpgAck,
    /// Your `PutM`/`PutE` completed; release the writeback buffer entry.
    WbAck,

    // ---- L1 → directory responses ----
    /// Invalidation acknowledgement.
    InvAck,
    /// Owner's reply to `FwdGets`/`FwdGetx`. `xfer` records what the
    /// owner did with its own copy (dropped it, downgraded to Shared,
    /// or retained dirty ownership under MOESI/MOSI).
    DataToDir { data: D, xfer: OwnerXfer },
    /// `FwdGets` bounced: the MESIF forwarder had already evicted its
    /// clean copy (a `PutS` is in flight). The copy was clean, so the
    /// directory serves the requestor from the valid L2 block instead.
    FwdNack,
    /// Transaction complete; the directory may service the next queued
    /// request for this block.
    Unblock,

    // ---- directory ↔ memory controller ----
    /// Fetch a block from DRAM.
    MemRead,
    /// DRAM fill data.
    MemData { data: D },
    /// Write a block back to DRAM (no ack).
    MemWrite { data: D },
}

/// The logical payload: block data carried inline.
pub type Payload = PayloadOf<BlockData>;

/// The control-plane payload: block data referenced by pool slot.
pub type PayloadCtl = PayloadOf<DataRef>;

/// A routed protocol message, generic like [`PayloadOf`] over how block
/// data is carried.
#[derive(Clone, Debug, Hash)]
pub struct MsgOf<D> {
    pub src: Endpoint,
    pub dst: Endpoint,
    pub block: BlockAddr,
    pub payload: PayloadOf<D>,
    /// Transport envelope (sequence number + taint bit). Always
    /// [`WireTag::default()`] when recovery is disabled.
    pub tag: WireTag,
}

/// A logical protocol message (inline data) — what controllers produce
/// and consume.
pub type Msg = MsgOf<BlockData>;

/// A control-plane message (data by [`DataRef`]) — what transports
/// store: the machine's message arena and the harness's virtual
/// network.
pub type CtlMsg = MsgOf<DataRef>;

impl Msg {
    /// Interns the payload's data (if any) into `pool`, yielding the
    /// small fixed-size control record transports store.
    pub fn intern(self, pool: &mut DataPool) -> CtlMsg {
        let payload = match self.payload {
            Payload::PutM { data } => PayloadCtl::PutM {
                data: pool.alloc(data),
            },
            Payload::Data { data, grant } => PayloadCtl::Data {
                data: pool.alloc(data),
                grant,
            },
            Payload::DataToDir { data, xfer } => PayloadCtl::DataToDir {
                data: pool.alloc(data),
                xfer,
            },
            Payload::MemData { data } => PayloadCtl::MemData {
                data: pool.alloc(data),
            },
            Payload::MemWrite { data } => PayloadCtl::MemWrite {
                data: pool.alloc(data),
            },
            Payload::Gets => PayloadCtl::Gets,
            Payload::Getx => PayloadCtl::Getx,
            Payload::Upgrade => PayloadCtl::Upgrade,
            Payload::PutS => PayloadCtl::PutS,
            Payload::PutE => PayloadCtl::PutE,
            Payload::Inv => PayloadCtl::Inv,
            Payload::FwdGets => PayloadCtl::FwdGets,
            Payload::FwdGetx => PayloadCtl::FwdGetx,
            Payload::UpgAck => PayloadCtl::UpgAck,
            Payload::WbAck => PayloadCtl::WbAck,
            Payload::InvAck => PayloadCtl::InvAck,
            Payload::FwdNack => PayloadCtl::FwdNack,
            Payload::Unblock => PayloadCtl::Unblock,
            Payload::MemRead => PayloadCtl::MemRead,
        };
        CtlMsg {
            src: self.src,
            dst: self.dst,
            block: self.block,
            payload,
            tag: self.tag,
        }
    }
}

impl CtlMsg {
    /// Resolves back to the logical message, consuming (and recycling)
    /// the data slot. The inverse of [`Msg::intern`].
    pub fn resolve(self, pool: &mut DataPool) -> Msg {
        let payload = self.payload.resolve_with(|r| pool.take(r));
        Msg {
            src: self.src,
            dst: self.dst,
            block: self.block,
            payload,
            tag: self.tag,
        }
    }

    /// Hashes the logical message this record denotes — `src`, `dst`,
    /// `block`, the payload variant and its fields with every data slot
    /// resolved to its block, then `tag` — by reference, without
    /// building a [`Msg`] copy. Two records with equal logical messages
    /// hash equally whatever slots their data occupies; this is how
    /// `System::fingerprint` hashes in-flight traffic.
    pub(crate) fn hash_logical<H: Hasher>(&self, pool: &DataPool, state: &mut H) {
        self.src.hash(state);
        self.dst.hash(state);
        self.block.hash(state);
        std::mem::discriminant(&self.payload).hash(state);
        match &self.payload {
            PayloadCtl::PutM { data }
            | PayloadCtl::MemData { data }
            | PayloadCtl::MemWrite { data } => pool.get(*data).hash(state),
            PayloadCtl::Data { data, grant } => {
                pool.get(*data).hash(state);
                grant.hash(state);
            }
            PayloadCtl::DataToDir { data, xfer } => {
                pool.get(*data).hash(state);
                xfer.hash(state);
            }
            PayloadCtl::Gets
            | PayloadCtl::Getx
            | PayloadCtl::Upgrade
            | PayloadCtl::PutS
            | PayloadCtl::PutE
            | PayloadCtl::Inv
            | PayloadCtl::FwdGets
            | PayloadCtl::FwdGetx
            | PayloadCtl::UpgAck
            | PayloadCtl::WbAck
            | PayloadCtl::InvAck
            | PayloadCtl::FwdNack
            | PayloadCtl::Unblock
            | PayloadCtl::MemRead => {}
        }
        self.tag.hash(state);
    }

    /// The logical message this record denotes, *without* consuming the
    /// data slot — for fault-injection peeking, where the message stays
    /// in flight.
    pub fn logical(&self, pool: &DataPool) -> Msg {
        let payload = self.payload.clone().resolve_with(|r| *pool.get(r));
        Msg {
            src: self.src,
            dst: self.dst,
            block: self.block,
            payload,
            tag: self.tag,
        }
    }
}

impl PayloadCtl {
    /// Maps each data slot through `take`, producing the logical form.
    fn resolve_with(self, mut take: impl FnMut(DataRef) -> BlockData) -> Payload {
        match self {
            PayloadCtl::PutM { data } => Payload::PutM { data: take(data) },
            PayloadCtl::Data { data, grant } => Payload::Data {
                data: take(data),
                grant,
            },
            PayloadCtl::DataToDir { data, xfer } => Payload::DataToDir {
                data: take(data),
                xfer,
            },
            PayloadCtl::MemData { data } => Payload::MemData { data: take(data) },
            PayloadCtl::MemWrite { data } => Payload::MemWrite { data: take(data) },
            PayloadCtl::Gets => Payload::Gets,
            PayloadCtl::Getx => Payload::Getx,
            PayloadCtl::Upgrade => Payload::Upgrade,
            PayloadCtl::PutS => Payload::PutS,
            PayloadCtl::PutE => Payload::PutE,
            PayloadCtl::Inv => Payload::Inv,
            PayloadCtl::FwdGets => Payload::FwdGets,
            PayloadCtl::FwdGetx => Payload::FwdGetx,
            PayloadCtl::UpgAck => Payload::UpgAck,
            PayloadCtl::WbAck => Payload::WbAck,
            PayloadCtl::InvAck => Payload::InvAck,
            PayloadCtl::FwdNack => Payload::FwdNack,
            PayloadCtl::Unblock => Payload::Unblock,
            PayloadCtl::MemRead => Payload::MemRead,
        }
    }
}

impl<D> PayloadOf<D> {
    /// The paper's Fig. 8 traffic class for this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            PayloadOf::Gets => MessageKind::Gets,
            PayloadOf::Getx => MessageKind::Getx,
            PayloadOf::Upgrade => MessageKind::Upgrade,
            PayloadOf::Data { .. }
            | PayloadOf::DataToDir { .. }
            | PayloadOf::PutM { .. }
            | PayloadOf::MemData { .. }
            | PayloadOf::MemWrite { .. } => MessageKind::Data,
            PayloadOf::PutS
            | PayloadOf::PutE
            | PayloadOf::Inv
            | PayloadOf::FwdGets
            | PayloadOf::FwdGetx
            | PayloadOf::UpgAck
            | PayloadOf::WbAck
            | PayloadOf::InvAck
            | PayloadOf::FwdNack
            | PayloadOf::Unblock
            | PayloadOf::MemRead => MessageKind::Other,
        }
    }

    /// Short wire name used by the protocol trace example.
    pub fn name(&self) -> &'static str {
        match self {
            PayloadOf::Gets => "GETS",
            PayloadOf::Getx => "GETX",
            PayloadOf::Upgrade => "UPGRADE",
            PayloadOf::PutS => "PUTS",
            PayloadOf::PutE => "PUTE",
            PayloadOf::PutM { .. } => "PUTM",
            PayloadOf::Inv => "INV",
            PayloadOf::FwdGets => "FWD_GETS",
            PayloadOf::FwdGetx => "FWD_GETX",
            PayloadOf::Data { .. } => "DATA",
            PayloadOf::UpgAck => "UPG_ACK",
            PayloadOf::WbAck => "WB_ACK",
            PayloadOf::InvAck => "INV_ACK",
            PayloadOf::FwdNack => "FWD_NACK",
            PayloadOf::DataToDir { .. } => "DATA_TO_DIR",
            PayloadOf::Unblock => "UNBLOCK",
            PayloadOf::MemRead => "MEM_READ",
            PayloadOf::MemData { .. } => "MEM_DATA",
            PayloadOf::MemWrite { .. } => "MEM_WRITE",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_classes_match_fig8_buckets() {
        assert_eq!(Payload::Gets.kind(), MessageKind::Gets);
        assert_eq!(Payload::Getx.kind(), MessageKind::Getx);
        assert_eq!(Payload::Upgrade.kind(), MessageKind::Upgrade);
        assert_eq!(
            Payload::Data {
                data: BlockData::zeroed(),
                grant: Grant::Shared
            }
            .kind(),
            MessageKind::Data
        );
        assert_eq!(
            Payload::PutM {
                data: BlockData::zeroed()
            }
            .kind(),
            MessageKind::Data
        );
        assert_eq!(Payload::Inv.kind(), MessageKind::Other);
        assert_eq!(Payload::InvAck.kind(), MessageKind::Other);
        assert_eq!(Payload::Unblock.kind(), MessageKind::Other);
        assert_eq!(Payload::MemRead.kind(), MessageKind::Other);
        assert_eq!(
            Payload::MemData {
                data: BlockData::zeroed()
            }
            .kind(),
            MessageKind::Data
        );
    }
}
