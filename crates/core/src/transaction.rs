//! Shared-memory transactions: the protocol the NI offers to IP modules.
//!
//! §2 of the paper: masters issue *requests* (command + address + optional
//! write data), slaves execute them and optionally return *responses*
//! (status + optional read data). This is the backward-compatibility layer
//! toward AXI/OCP/DTL; the simplified DTL master/slave shells serialize
//! these structures into the message formats of Fig. 7.

/// Transaction commands.
///
/// `Read`/`Write`/`AckedWrite` are the simplified-DTL set used throughout
/// the paper; `ReadLinked`/`WriteConditional` are the "full-fledged shell"
/// extensions the paper names for the slave side (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmd {
    /// Read `length` words from `addr`.
    Read,
    /// Posted write: no response.
    Write,
    /// Acknowledged write: slave returns a status response.
    AckedWrite,
    /// Load-linked read (sets a reservation at the slave).
    ReadLinked,
    /// Store-conditional write (succeeds only if the reservation held).
    WriteConditional,
}

impl Cmd {
    /// Whether a transaction with this command produces a response message.
    pub fn has_response(self) -> bool {
        !matches!(self, Cmd::Write)
    }

    /// Whether the request message carries write data.
    pub fn carries_data(self) -> bool {
        matches!(self, Cmd::Write | Cmd::AckedWrite | Cmd::WriteConditional)
    }

    /// Whether the response message carries read data.
    pub fn response_carries_data(self) -> bool {
        matches!(self, Cmd::Read | Cmd::ReadLinked)
    }

    /// Wire encoding (4 bits).
    pub fn encode(self) -> u8 {
        match self {
            Cmd::Read => 0,
            Cmd::Write => 1,
            Cmd::AckedWrite => 2,
            Cmd::ReadLinked => 3,
            Cmd::WriteConditional => 4,
        }
    }

    /// Decodes a wire command.
    pub fn decode(bits: u8) -> Option<Self> {
        Some(match bits {
            0 => Cmd::Read,
            1 => Cmd::Write,
            2 => Cmd::AckedWrite,
            3 => Cmd::ReadLinked,
            4 => Cmd::WriteConditional,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Cmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Cmd::Read => "read",
            Cmd::Write => "write",
            Cmd::AckedWrite => "acked-write",
            Cmd::ReadLinked => "read-linked",
            Cmd::WriteConditional => "write-conditional",
        };
        f.write_str(s)
    }
}

/// Response status codes (4 bits on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RespStatus {
    /// Success.
    #[default]
    Ok,
    /// The slave could not decode the address.
    DecodeError,
    /// The slave reported an execution error.
    SlaveError,
    /// The command is not supported by the slave.
    Unsupported,
    /// A conditional write lost its reservation.
    ConditionalFail,
}

impl RespStatus {
    /// Wire encoding.
    pub fn encode(self) -> u8 {
        match self {
            RespStatus::Ok => 0,
            RespStatus::DecodeError => 1,
            RespStatus::SlaveError => 2,
            RespStatus::Unsupported => 3,
            RespStatus::ConditionalFail => 4,
        }
    }

    /// Decodes a wire status (unknown codes collapse to `SlaveError`).
    pub fn decode(bits: u8) -> Self {
        match bits {
            0 => RespStatus::Ok,
            1 => RespStatus::DecodeError,
            3 => RespStatus::Unsupported,
            4 => RespStatus::ConditionalFail,
            _ => RespStatus::SlaveError,
        }
    }

    /// Merges two statuses (used by the multicast shell): any failure wins.
    pub fn merge(self, other: RespStatus) -> RespStatus {
        if self == RespStatus::Ok {
            other
        } else {
            self
        }
    }
}

impl std::fmt::Display for RespStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RespStatus::Ok => "ok",
            RespStatus::DecodeError => "decode error",
            RespStatus::SlaveError => "slave error",
            RespStatus::Unsupported => "unsupported command",
            RespStatus::ConditionalFail => "conditional write failed",
        };
        f.write_str(s)
    }
}

/// A master-issued transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Command.
    pub cmd: Cmd,
    /// Target address (one shared 32-bit address space).
    pub addr: u32,
    /// Write data (`cmd.carries_data()` commands only).
    pub data: Vec<u32>,
    /// Words requested by a read (`cmd.response_carries_data()` commands).
    pub read_len: u8,
    /// Master-chosen transaction id, echoed in the response (12 bits).
    pub trans_id: u16,
    /// Request that buffered data be flushed through the NI thresholds
    /// (mapped onto the per-channel flush of §4.1).
    pub flush: bool,
}

impl Transaction {
    /// Convenience constructor for a read.
    pub fn read(addr: u32, read_len: u8, trans_id: u16) -> Self {
        Transaction {
            cmd: Cmd::Read,
            addr,
            data: Vec::new(),
            read_len,
            trans_id,
            flush: false,
        }
    }

    /// Convenience constructor for a posted write.
    pub fn write(addr: u32, data: Vec<u32>, trans_id: u16) -> Self {
        Transaction {
            cmd: Cmd::Write,
            addr,
            data,
            read_len: 0,
            trans_id,
            flush: false,
        }
    }

    /// Convenience constructor for an acknowledged write.
    pub fn acked_write(addr: u32, data: Vec<u32>, trans_id: u16) -> Self {
        Transaction {
            cmd: Cmd::AckedWrite,
            addr,
            data,
            read_len: 0,
            trans_id,
            flush: false,
        }
    }

    /// Marks the transaction as flushing.
    pub fn with_flush(mut self) -> Self {
        self.flush = true;
        self
    }

    /// Number of response data words this transaction will produce.
    pub fn expected_response_len(&self) -> u8 {
        if self.cmd.response_carries_data() {
            self.read_len
        } else {
            0
        }
    }

    /// A placeholder transaction used as the resize default when a
    /// state walk rebuilds a collection (every field is then
    /// overwritten by the element walk).
    pub fn persist_default() -> Self {
        Transaction::read(0, 0, 0)
    }

    /// Walks the transaction through a state visitor (see
    /// [`noc_sim::persist`]); the command travels as its 4-bit wire
    /// encoding, unknown encodings fail the restore.
    pub fn walk<V: noc_sim::StateVisit + ?Sized>(&mut self, p: &mut V) {
        use noc_sim::persist::{persist_bool, persist_int, persist_int_list};
        let mut cmd = u64::from(self.cmd.encode());
        p.item(&mut cmd);
        match u8::try_from(cmd).ok().and_then(Cmd::decode) {
            Some(c) => self.cmd = c,
            None => p.fail("snapshot item is not a transaction command"),
        }
        persist_int(&mut self.addr, p);
        persist_int_list(&mut self.data, p);
        persist_int(&mut self.read_len, p);
        persist_int(&mut self.trans_id, p);
        persist_bool(&mut self.flush, p);
    }
}

/// A slave-issued response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionResponse {
    /// Echo of the request's `trans_id`.
    pub trans_id: u16,
    /// Execution status.
    pub status: RespStatus,
    /// Read data (empty for write acknowledgments).
    pub data: Vec<u32>,
}

impl TransactionResponse {
    /// A success acknowledgment without data.
    pub fn ack(trans_id: u16) -> Self {
        TransactionResponse {
            trans_id,
            status: RespStatus::Ok,
            data: Vec::new(),
        }
    }

    /// A data-carrying success response.
    pub fn with_data(trans_id: u16, data: Vec<u32>) -> Self {
        TransactionResponse {
            trans_id,
            status: RespStatus::Ok,
            data,
        }
    }

    /// An error response.
    pub fn error(trans_id: u16, status: RespStatus) -> Self {
        TransactionResponse {
            trans_id,
            status,
            data: Vec::new(),
        }
    }

    /// Walks the response through a state visitor; the status
    /// travels as its 4-bit wire encoding (unknown codes collapse to
    /// `SlaveError`, exactly as on the wire).
    pub fn walk<V: noc_sim::StateVisit + ?Sized>(&mut self, p: &mut V) {
        use noc_sim::persist::{persist_int, persist_int_list};
        persist_int(&mut self.trans_id, p);
        let mut status = u64::from(self.status.encode());
        p.item(&mut status);
        match u8::try_from(status) {
            Ok(bits) => self.status = RespStatus::decode(bits),
            Err(_) => p.fail("snapshot item is not a response status"),
        }
        persist_int_list(&mut self.data, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmd_roundtrip() {
        for cmd in [
            Cmd::Read,
            Cmd::Write,
            Cmd::AckedWrite,
            Cmd::ReadLinked,
            Cmd::WriteConditional,
        ] {
            assert_eq!(Cmd::decode(cmd.encode()), Some(cmd));
        }
        assert_eq!(Cmd::decode(9), None);
    }

    #[test]
    fn status_roundtrip() {
        for s in [
            RespStatus::Ok,
            RespStatus::DecodeError,
            RespStatus::SlaveError,
            RespStatus::Unsupported,
            RespStatus::ConditionalFail,
        ] {
            assert_eq!(RespStatus::decode(s.encode()), s);
        }
    }

    #[test]
    fn posted_write_has_no_response() {
        assert!(!Cmd::Write.has_response());
        assert!(Cmd::AckedWrite.has_response());
        assert!(Cmd::Read.has_response());
    }

    #[test]
    fn merge_prefers_failure() {
        assert_eq!(
            RespStatus::Ok.merge(RespStatus::SlaveError),
            RespStatus::SlaveError
        );
        assert_eq!(
            RespStatus::DecodeError.merge(RespStatus::Ok),
            RespStatus::DecodeError
        );
        assert_eq!(RespStatus::Ok.merge(RespStatus::Ok), RespStatus::Ok);
    }

    #[test]
    fn expected_response_len() {
        assert_eq!(Transaction::read(0, 4, 1).expected_response_len(), 4);
        assert_eq!(
            Transaction::write(0, vec![1, 2], 2).expected_response_len(),
            0
        );
        assert_eq!(
            Transaction::acked_write(0, vec![1], 3).expected_response_len(),
            0
        );
    }

    #[test]
    fn flush_builder() {
        assert!(Transaction::read(0, 1, 0).with_flush().flush);
    }
}
