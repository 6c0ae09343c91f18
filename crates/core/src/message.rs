//! Message formats: the sequentialized form of transactions (Fig. 7 of the
//! paper).
//!
//! *Request message*: one header word (`cmd | length | flags | trans id`),
//! one address word, `length` write-data words (for writes), and an optional
//! trailing sequence-number word.
//!
//! *Response message*: one header word (`error | length | trans id`),
//! `length` read-data words (for reads), and the optional sequence word.
//!
//! The trailing sequence number exists for *unordered* channels (§2 lists
//! "in order or un-ordered message delivery" as a configurable channel
//! property); in-order channels omit it to save a word, which is the default
//! of the prototype. The shells only number messages: none reads the
//! number back, so nothing here restores order on an unordered channel.
//!
//! Bit layout of the request header word:
//!
//! ```text
//!  31..28  27..20  19..12  11..0
//!  cmd     length  flags   trans id
//! ```
//!
//! and of the response header word:
//!
//! ```text
//!  31..28  27..20  19..12    11..0
//!  error   length  reserved  trans id
//! ```

use crate::transaction::{Cmd, RespStatus, Transaction, TransactionResponse};
use std::collections::VecDeque;

/// Maximum data words per message (8-bit length field).
pub const MAX_MSG_DATA: usize = 255;

/// Request-header flag: flush the channel after this message (§4.1).
pub const FLAG_FLUSH: u8 = 0b0000_0001;

const TRANS_ID_BITS: u32 = 12;
/// Maximum encodable transaction id.
pub const MAX_TRANS_ID: u16 = (1 << TRANS_ID_BITS) - 1;

/// Whether a channel's messages carry the trailing sequence-number word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// In-order channel: no sequence word (prototype default).
    #[default]
    InOrder,
    /// Unordered channel: every message ends with a 32-bit sequence number.
    Sequenced,
}

impl Ordering {
    fn seq_words(self) -> usize {
        match self {
            Ordering::InOrder => 0,
            Ordering::Sequenced => 1,
        }
    }
}

/// A decoded request message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMsg {
    /// Command.
    pub cmd: Cmd,
    /// Read length (reads) or write-data length (writes).
    pub length: u8,
    /// Flag bits (see [`FLAG_FLUSH`]).
    pub flags: u8,
    /// Transaction id (≤ [`MAX_TRANS_ID`]).
    pub trans_id: u16,
    /// Target address.
    pub addr: u32,
    /// Write data (writes only).
    pub data: Vec<u32>,
    /// Sequence number (sequenced channels only).
    pub seq_no: Option<u32>,
}

impl RequestMsg {
    /// Builds the request message for a transaction.
    ///
    /// # Panics
    ///
    /// Panics if the write data exceeds [`MAX_MSG_DATA`] words or the
    /// transaction id exceeds [`MAX_TRANS_ID`].
    pub fn from_transaction(t: &Transaction, seq_no: Option<u32>) -> Self {
        assert!(
            t.data.len() <= MAX_MSG_DATA,
            "write burst exceeds message length field"
        );
        assert!(t.trans_id <= MAX_TRANS_ID, "transaction id exceeds 12 bits");
        let length = if t.cmd.carries_data() {
            t.data.len() as u8
        } else {
            t.read_len
        };
        RequestMsg {
            cmd: t.cmd,
            length,
            flags: if t.flush { FLAG_FLUSH } else { 0 },
            trans_id: t.trans_id,
            addr: t.addr,
            data: if t.cmd.carries_data() {
                t.data.clone()
            } else {
                Vec::new()
            },
            seq_no,
        }
    }

    /// Converts back into a transaction (at the slave shell).
    pub fn into_transaction(self) -> Transaction {
        let read_len = if self.cmd.carries_data() {
            0
        } else {
            self.length
        };
        Transaction {
            cmd: self.cmd,
            addr: self.addr,
            data: self.data,
            read_len,
            trans_id: self.trans_id,
            flush: self.flags & FLAG_FLUSH != 0,
        }
    }

    /// Serializes into wire words.
    pub fn encode(&self) -> Vec<u32> {
        let mut words = Vec::with_capacity(2 + self.data.len() + 1);
        words.push(
            (u32::from(self.cmd.encode()) << 28)
                | (u32::from(self.length) << 20)
                | (u32::from(self.flags) << 12)
                | u32::from(self.trans_id),
        );
        words.push(self.addr);
        words.extend_from_slice(&self.data);
        if let Some(seq) = self.seq_no {
            words.push(seq);
        }
        words
    }

    /// Total words of the message described by header word `w0` under the
    /// given ordering mode, or `None` if the command bits are invalid.
    pub fn wire_len(w0: u32, ordering: Ordering) -> Option<usize> {
        let cmd = Cmd::decode((w0 >> 28) as u8)?;
        let length = ((w0 >> 20) & 0xFF) as usize;
        let data = if cmd.carries_data() { length } else { 0 };
        Some(2 + data + ordering.seq_words())
    }

    /// Parses a complete message from wire words.
    pub fn decode(words: &[u32], ordering: Ordering) -> Result<Self, MsgError> {
        if words.len() < 2 {
            return Err(MsgError::Truncated {
                have: words.len(),
                need: 2,
            });
        }
        let w0 = words[0];
        let cmd = Cmd::decode((w0 >> 28) as u8).ok_or(MsgError::BadCommand {
            bits: (w0 >> 28) as u8,
        })?;
        let expected = Self::wire_len(w0, ordering).expect("cmd just validated");
        if words.len() != expected {
            return Err(MsgError::Truncated {
                have: words.len(),
                need: expected,
            });
        }
        let length = ((w0 >> 20) & 0xFF) as u8;
        let data_words = if cmd.carries_data() {
            usize::from(length)
        } else {
            0
        };
        let data = words[2..2 + data_words].to_vec();
        let seq_no = match ordering {
            Ordering::InOrder => None,
            Ordering::Sequenced => Some(words[expected - 1]),
        };
        Ok(RequestMsg {
            cmd,
            length,
            flags: ((w0 >> 12) & 0xFF) as u8,
            trans_id: (w0 & 0xFFF) as u16,
            addr: words[1],
            data,
            seq_no,
        })
    }
}

/// A decoded response message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseMsg {
    /// Execution status.
    pub status: RespStatus,
    /// Read-data length.
    pub length: u8,
    /// Echoed transaction id.
    pub trans_id: u16,
    /// Read data.
    pub data: Vec<u32>,
    /// Sequence number (sequenced channels only).
    pub seq_no: Option<u32>,
}

impl ResponseMsg {
    /// Builds the response message for a transaction response.
    ///
    /// # Panics
    ///
    /// Panics if the data exceeds [`MAX_MSG_DATA`] words.
    pub fn from_response(r: &TransactionResponse, seq_no: Option<u32>) -> Self {
        assert!(
            r.data.len() <= MAX_MSG_DATA,
            "read burst exceeds message length field"
        );
        ResponseMsg {
            status: r.status,
            length: r.data.len() as u8,
            trans_id: r.trans_id,
            data: r.data.clone(),
            seq_no,
        }
    }

    /// Converts into the transaction-level response.
    pub fn into_response(self) -> TransactionResponse {
        TransactionResponse {
            trans_id: self.trans_id,
            status: self.status,
            data: self.data,
        }
    }

    /// Serializes into wire words.
    pub fn encode(&self) -> Vec<u32> {
        let mut words = Vec::with_capacity(1 + self.data.len() + 1);
        words.push(
            (u32::from(self.status.encode()) << 28)
                | (u32::from(self.length) << 20)
                | u32::from(self.trans_id),
        );
        words.extend_from_slice(&self.data);
        if let Some(seq) = self.seq_no {
            words.push(seq);
        }
        words
    }

    /// Total words of the message with header word `w0`.
    pub fn wire_len(w0: u32, ordering: Ordering) -> usize {
        let length = ((w0 >> 20) & 0xFF) as usize;
        1 + length + ordering.seq_words()
    }

    /// Parses a complete message from wire words.
    pub fn decode(words: &[u32], ordering: Ordering) -> Result<Self, MsgError> {
        if words.is_empty() {
            return Err(MsgError::Truncated { have: 0, need: 1 });
        }
        let w0 = words[0];
        let expected = Self::wire_len(w0, ordering);
        if words.len() != expected {
            return Err(MsgError::Truncated {
                have: words.len(),
                need: expected,
            });
        }
        let length = ((w0 >> 20) & 0xFF) as u8;
        let data = words[1..1 + usize::from(length)].to_vec();
        let seq_no = match ordering {
            Ordering::InOrder => None,
            Ordering::Sequenced => Some(words[expected - 1]),
        };
        Ok(ResponseMsg {
            status: RespStatus::decode((w0 >> 28) as u8),
            length,
            trans_id: (w0 & 0xFFF) as u16,
            data,
            seq_no,
        })
    }
}

/// Message decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgError {
    /// Not enough words.
    Truncated {
        /// Words available.
        have: usize,
        /// Words needed.
        need: usize,
    },
    /// Invalid command bits.
    BadCommand {
        /// The offending bits.
        bits: u8,
    },
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::Truncated { have, need } => {
                write!(f, "truncated message: {have} of {need} words")
            }
            MsgError::BadCommand { bits } => write!(f, "invalid command bits {bits:#x}"),
        }
    }
}

impl std::error::Error for MsgError {}

/// Which message format a word stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Request messages (master → slave direction).
    Request,
    /// Response messages (slave → master direction).
    Response,
}

/// Incremental reassembler: feed words popped from a destination queue, get
/// complete messages out.
///
/// Shells use one assembler per channel they consume from; message framing
/// is self-delimiting via the header length field.
#[derive(Debug, Clone)]
pub struct MessageAssembler {
    kind: MsgKind,
    ordering: Ordering,
    buf: Vec<u32>,
    need: usize,
    errors: u64,
    ready: VecDeque<Vec<u32>>,
}

impl MessageAssembler {
    /// Creates an assembler for the given stream kind and ordering mode.
    pub fn new(kind: MsgKind, ordering: Ordering) -> Self {
        MessageAssembler {
            kind,
            ordering,
            buf: Vec::new(),
            need: 0,
            errors: 0,
            ready: VecDeque::new(),
        }
    }

    /// Feeds one word from the stream.
    pub fn push_word(&mut self, word: u32) {
        if self.buf.is_empty() {
            self.need = match self.kind {
                MsgKind::Request => match RequestMsg::wire_len(word, self.ordering) {
                    Some(n) => n,
                    None => {
                        // Unknown command: drop the word and count the error
                        // (a hardware NI would raise an interrupt here).
                        self.errors += 1;
                        return;
                    }
                },
                MsgKind::Response => ResponseMsg::wire_len(word, self.ordering),
            };
        }
        self.buf.push(word);
        if self.buf.len() == self.need {
            self.ready.push_back(std::mem::take(&mut self.buf));
        }
    }

    /// Takes the next complete request message.
    ///
    /// # Panics
    ///
    /// Panics if the assembler was created for responses.
    pub fn next_request(&mut self) -> Option<RequestMsg> {
        assert_eq!(self.kind, MsgKind::Request, "assembler carries responses");
        self.ready
            .pop_front()
            .map(|w| RequestMsg::decode(&w, self.ordering).expect("assembler framed the message"))
    }

    /// Takes the next complete response message.
    ///
    /// # Panics
    ///
    /// Panics if the assembler was created for requests.
    pub fn next_response(&mut self) -> Option<ResponseMsg> {
        assert_eq!(self.kind, MsgKind::Response, "assembler carries requests");
        self.ready
            .pop_front()
            .map(|w| ResponseMsg::decode(&w, self.ordering).expect("assembler framed the message"))
    }

    /// Complete messages waiting.
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Words of the partially assembled message.
    pub fn partial_words(&self) -> usize {
        self.buf.len()
    }

    /// Framing errors seen (invalid command bits).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Walks the assembler's dynamic state through a state visitor
    /// (see [`noc_sim::persist`]): the expected length of the message
    /// being framed, the error count, the partial word buffer, and every
    /// complete-but-unconsumed message. `kind`/`ordering` are structural.
    pub fn walk(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::{persist_deque, persist_int, persist_int_list};
        persist_int(&mut self.need, p);
        p.counter(&mut self.errors);
        persist_int_list(&mut self.buf, p);
        persist_deque(&mut self.ready, Vec::new(), p, |m, p| {
            persist_int_list(m, p)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_write() {
        let t = Transaction::write(0x1000, vec![1, 2, 3], 7).with_flush();
        let m = RequestMsg::from_transaction(&t, None);
        let words = m.encode();
        assert_eq!(words.len(), 2 + 3);
        let back = RequestMsg::decode(&words, Ordering::InOrder).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.into_transaction(), t);
    }

    #[test]
    fn request_roundtrip_read() {
        let t = Transaction::read(0xABCD, 16, 99);
        let m = RequestMsg::from_transaction(&t, None);
        let words = m.encode();
        assert_eq!(words.len(), 2, "reads carry no data words");
        let back = RequestMsg::decode(&words, Ordering::InOrder).unwrap();
        assert_eq!(back.into_transaction(), t);
    }

    #[test]
    fn request_sequenced_has_trailing_word() {
        let t = Transaction::read(4, 1, 0);
        let m = RequestMsg::from_transaction(&t, Some(0xDEAD));
        let words = m.encode();
        assert_eq!(words.len(), 3);
        let back = RequestMsg::decode(&words, Ordering::Sequenced).unwrap();
        assert_eq!(back.seq_no, Some(0xDEAD));
    }

    #[test]
    fn response_roundtrip() {
        let r = TransactionResponse::with_data(12, vec![9, 8, 7]);
        let m = ResponseMsg::from_response(&r, None);
        let words = m.encode();
        assert_eq!(words.len(), 4);
        let back = ResponseMsg::decode(&words, Ordering::InOrder).unwrap();
        assert_eq!(back.into_response(), r);
    }

    #[test]
    fn response_ack_is_one_word() {
        let r = TransactionResponse::ack(1);
        let words = ResponseMsg::from_response(&r, None).encode();
        assert_eq!(words.len(), 1);
    }

    #[test]
    fn decode_rejects_bad_command() {
        let w0 = 0xF000_0000u32; // cmd = 15
        assert_eq!(
            RequestMsg::decode(&[w0, 0], Ordering::InOrder),
            Err(MsgError::BadCommand { bits: 15 })
        );
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let t = Transaction::write(0, vec![1, 2], 0);
        let mut words = RequestMsg::from_transaction(&t, None).encode();
        words.pop();
        assert!(matches!(
            RequestMsg::decode(&words, Ordering::InOrder),
            Err(MsgError::Truncated { .. })
        ));
    }

    #[test]
    fn assembler_frames_mixed_stream() {
        let t1 = Transaction::write(0x10, vec![5, 6], 1);
        let t2 = Transaction::read(0x20, 8, 2);
        let mut stream = Vec::new();
        stream.extend(RequestMsg::from_transaction(&t1, None).encode());
        stream.extend(RequestMsg::from_transaction(&t2, None).encode());
        let mut asm = MessageAssembler::new(MsgKind::Request, Ordering::InOrder);
        for w in stream {
            asm.push_word(w);
        }
        assert_eq!(asm.ready(), 2);
        assert_eq!(asm.next_request().unwrap().into_transaction(), t1);
        assert_eq!(asm.next_request().unwrap().into_transaction(), t2);
        assert_eq!(asm.next_request(), None);
        assert_eq!(asm.errors(), 0);
    }

    #[test]
    fn assembler_tracks_partial() {
        let t = Transaction::write(0, vec![1, 2, 3, 4], 0);
        let words = RequestMsg::from_transaction(&t, None).encode();
        let mut asm = MessageAssembler::new(MsgKind::Request, Ordering::InOrder);
        for w in &words[..3] {
            asm.push_word(*w);
        }
        assert_eq!(asm.ready(), 0);
        assert_eq!(asm.partial_words(), 3);
        for w in &words[3..] {
            asm.push_word(*w);
        }
        assert_eq!(asm.ready(), 1);
    }

    #[test]
    fn assembler_counts_bad_commands() {
        let mut asm = MessageAssembler::new(MsgKind::Request, Ordering::InOrder);
        asm.push_word(0xF000_0000);
        assert_eq!(asm.errors(), 1);
        assert_eq!(asm.ready(), 0);
        // Stream recovers on the next valid header.
        let t = Transaction::read(0, 1, 0);
        for w in RequestMsg::from_transaction(&t, None).encode() {
            asm.push_word(w);
        }
        assert_eq!(asm.ready(), 1);
    }

    #[test]
    fn response_assembler() {
        let r = TransactionResponse::with_data(3, vec![1]);
        let mut asm = MessageAssembler::new(MsgKind::Response, Ordering::InOrder);
        for w in ResponseMsg::from_response(&r, None).encode() {
            asm.push_word(w);
        }
        assert_eq!(asm.next_response().unwrap().into_response(), r);
    }

    #[test]
    #[should_panic(expected = "carries responses")]
    fn wrong_kind_panics() {
        let mut asm = MessageAssembler::new(MsgKind::Response, Ordering::InOrder);
        let _ = asm.next_request();
    }
}
