//! Message formats: a transaction on the wire (Fig. 7 of the paper).
//!
//! *Request message*: one header word (`cmd | length | flags | trans id`),
//! one address word, and `length` write-data words for a command that
//! carries data — `2 + data` words in all.
//!
//! *Response message*: one header word (`error | length | trans id`) and
//! `length` read-data words — `1 + data` words.
//!
//! Nothing else travels: no sequence number, because every channel
//! delivers in order by construction. A connection's words follow one
//! source route through FIFOs (the NI queues, the routers' input buffers),
//! so they arrive in the order they were sent, and a shell with several
//! targets orders their responses by its own history (the narrowcast,
//! multicast and multi-connection shells). §2 also lists *unordered*
//! delivery as a configurable channel property; it is not modelled.
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

/// The length field of a header word.
fn length_of(w0: u32) -> u8 {
    ((w0 >> 20) & 0xFF) as u8
}

/// The request message of a transaction: header, address, write data.
///
/// # Panics
///
/// Panics if the write data exceeds [`MAX_MSG_DATA`] words or the
/// transaction id exceeds [`MAX_TRANS_ID`].
pub fn encode_request(t: &Transaction) -> Vec<u32> {
    assert!(
        t.data.len() <= MAX_MSG_DATA,
        "write burst exceeds message length field"
    );
    assert!(t.trans_id <= MAX_TRANS_ID, "transaction id exceeds 12 bits");
    let (length, data) = if t.cmd.carries_data() {
        (t.data.len() as u8, &t.data[..])
    } else {
        (t.read_len, &[][..])
    };
    let flags = if t.flush { FLAG_FLUSH } else { 0 };
    let mut words = Vec::with_capacity(2 + data.len());
    words.push(
        (u32::from(t.cmd.encode()) << 28)
            | (u32::from(length) << 20)
            | (u32::from(flags) << 12)
            | u32::from(t.trans_id),
    );
    words.push(t.addr);
    words.extend_from_slice(data);
    words
}

/// Parses a complete request message back into its transaction.
///
/// # Errors
///
/// [`MsgError::BadCommand`] for invalid command bits,
/// [`MsgError::Truncated`] when the words are not exactly one message.
pub fn decode_request(words: &[u32]) -> Result<Transaction, MsgError> {
    if words.len() < 2 {
        return Err(MsgError::Truncated {
            have: words.len(),
            need: 2,
        });
    }
    let w0 = words[0];
    let bits = (w0 >> 28) as u8;
    let cmd = Cmd::decode(bits).ok_or(MsgError::BadCommand { bits })?;
    let need = MsgKind::Request.frame_len(w0).expect("cmd just validated");
    if words.len() != need {
        return Err(MsgError::Truncated {
            have: words.len(),
            need,
        });
    }
    Ok(Transaction {
        cmd,
        addr: words[1],
        data: words[2..].to_vec(),
        read_len: if cmd.carries_data() { 0 } else { length_of(w0) },
        trans_id: (w0 & 0xFFF) as u16,
        flush: ((w0 >> 12) as u8) & FLAG_FLUSH != 0,
    })
}

/// The response message of a transaction response: header, read data.
///
/// # Panics
///
/// Panics if the data exceeds [`MAX_MSG_DATA`] words.
pub fn encode_response(r: &TransactionResponse) -> Vec<u32> {
    assert!(
        r.data.len() <= MAX_MSG_DATA,
        "read burst exceeds message length field"
    );
    let mut words = Vec::with_capacity(1 + r.data.len());
    words.push(
        (u32::from(r.status.encode()) << 28)
            | ((r.data.len() as u32) << 20)
            | u32::from(r.trans_id),
    );
    words.extend_from_slice(&r.data);
    words
}

/// Parses a complete response message back into its response.
///
/// # Errors
///
/// [`MsgError::Truncated`] when the words are not exactly one message.
pub fn decode_response(words: &[u32]) -> Result<TransactionResponse, MsgError> {
    let Some(&w0) = words.first() else {
        return Err(MsgError::Truncated { have: 0, need: 1 });
    };
    let need = MsgKind::Response.frame_len(w0).expect("any header frames");
    if words.len() != need {
        return Err(MsgError::Truncated {
            have: words.len(),
            need,
        });
    }
    Ok(TransactionResponse {
        trans_id: (w0 & 0xFFF) as u16,
        status: RespStatus::decode((w0 >> 28) as u8),
        data: words[1..].to_vec(),
    })
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

impl MsgKind {
    /// Total words of the message whose header word is `w0`, or `None` if
    /// a request header's command bits are invalid.
    fn frame_len(self, w0: u32) -> Option<usize> {
        let length = usize::from(length_of(w0));
        match self {
            MsgKind::Request => {
                let cmd = Cmd::decode((w0 >> 28) as u8)?;
                Some(2 + if cmd.carries_data() { length } else { 0 })
            }
            MsgKind::Response => Some(1 + length),
        }
    }
}

/// Incremental reassembler: feed words popped from a destination queue, get
/// complete messages out.
///
/// Shells use one assembler per channel they consume from; message framing
/// is self-delimiting via the header length field.
#[derive(Debug, Clone)]
pub struct MessageAssembler {
    kind: MsgKind,
    buf: Vec<u32>,
    /// Words of the message being framed. Derived from `buf[0]`: set when
    /// a header arrives, and re-derived by the state walk.
    need: usize,
    errors: u64,
    ready: VecDeque<Vec<u32>>,
}

impl MessageAssembler {
    /// Creates an assembler for the given stream kind.
    pub fn new(kind: MsgKind) -> Self {
        MessageAssembler {
            kind,
            buf: Vec::new(),
            need: 0,
            errors: 0,
            ready: VecDeque::new(),
        }
    }

    /// Feeds one word from the stream.
    pub fn push_word(&mut self, word: u32) {
        if self.buf.is_empty() {
            let Some(need) = self.kind.frame_len(word) else {
                // Unknown command: drop the word and count the error (a
                // hardware NI would raise an interrupt here).
                self.errors += 1;
                return;
            };
            self.need = need;
        }
        self.buf.push(word);
        if self.buf.len() == self.need {
            self.ready.push_back(std::mem::take(&mut self.buf));
        }
    }

    /// Takes the next complete request.
    ///
    /// # Panics
    ///
    /// Panics if the assembler was created for responses.
    pub fn next_request(&mut self) -> Option<Transaction> {
        assert_eq!(self.kind, MsgKind::Request, "assembler carries responses");
        self.ready
            .pop_front()
            .map(|w| decode_request(&w).expect("assembler framed the message"))
    }

    /// Takes the next complete response.
    ///
    /// # Panics
    ///
    /// Panics if the assembler was created for requests.
    pub fn next_response(&mut self) -> Option<TransactionResponse> {
        assert_eq!(self.kind, MsgKind::Response, "assembler carries requests");
        self.ready
            .pop_front()
            .map(|w| decode_response(&w).expect("assembler framed the message"))
    }

    /// Complete messages waiting.
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Framing errors seen (invalid command bits).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Walks the assembler's dynamic state through a state visitor
    /// (see [`noc_sim::persist`]): the error count, the partial word
    /// buffer, and every complete-but-unconsumed message. `kind` is
    /// structural; `need` is re-derived from the partial message's header.
    /// Only what framing can produce is taken: the partial buffer must be
    /// a strict prefix of a valid message, and every waiting message
    /// exactly one.
    pub fn walk<V: noc_sim::StateVisit + ?Sized>(&mut self, p: &mut V) {
        use noc_sim::persist::{persist_deque, persist_int_list};
        p.counter(&mut self.errors);
        persist_int_list(&mut self.buf, p);
        persist_deque(&mut self.ready, Vec::new(), p, |m, p| {
            persist_int_list(m, p)
        });
        let kind = self.kind;
        if let Some(&w0) = self.buf.first() {
            match kind.frame_len(w0) {
                Some(need) if self.buf.len() < need => self.need = need,
                _ => p.fail("snapshot partial message is not a prefix of a message"),
            }
        }
        let frames = |m: &Vec<u32>| m.first().and_then(|&w0| kind.frame_len(w0)) == Some(m.len());
        if !self.ready.iter().all(frames) {
            p.fail("snapshot holds a waiting message that is not one message");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{StateLoader, StateSaver};

    #[test]
    fn request_roundtrip_write() {
        let t = Transaction::write(0x1000, vec![1, 2, 3], 7).with_flush();
        let words = encode_request(&t);
        assert_eq!(words.len(), 2 + 3);
        assert_eq!(decode_request(&words), Ok(t));
    }

    #[test]
    fn request_roundtrip_read() {
        let t = Transaction::read(0xABCD, 16, 99);
        let words = encode_request(&t);
        assert_eq!(words.len(), 2, "reads carry no data words");
        assert_eq!(decode_request(&words), Ok(t));
    }

    #[test]
    fn response_roundtrip() {
        let r = TransactionResponse::with_data(12, vec![9, 8, 7]);
        let words = encode_response(&r);
        assert_eq!(words.len(), 4);
        assert_eq!(decode_response(&words), Ok(r));
    }

    #[test]
    fn response_ack_is_one_word() {
        let words = encode_response(&TransactionResponse::ack(1));
        assert_eq!(words.len(), 1);
    }

    #[test]
    fn decode_rejects_bad_command() {
        let w0 = 0xF000_0000u32; // cmd = 15
        assert_eq!(
            decode_request(&[w0, 0]),
            Err(MsgError::BadCommand { bits: 15 })
        );
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let mut words = encode_request(&Transaction::write(0, vec![1, 2], 0));
        words.pop();
        assert!(matches!(
            decode_request(&words),
            Err(MsgError::Truncated { .. })
        ));
    }

    #[test]
    fn assembler_frames_mixed_stream() {
        let t1 = Transaction::write(0x10, vec![5, 6], 1);
        let t2 = Transaction::read(0x20, 8, 2);
        let mut asm = MessageAssembler::new(MsgKind::Request);
        for w in encode_request(&t1).into_iter().chain(encode_request(&t2)) {
            asm.push_word(w);
        }
        assert_eq!(asm.ready(), 2);
        assert_eq!(asm.next_request(), Some(t1));
        assert_eq!(asm.next_request(), Some(t2));
        assert_eq!(asm.next_request(), None);
        assert_eq!(asm.errors(), 0);
    }

    #[test]
    fn assembler_tracks_partial() {
        let words = encode_request(&Transaction::write(0, vec![1, 2, 3, 4], 0));
        let mut asm = MessageAssembler::new(MsgKind::Request);
        for w in &words[..3] {
            asm.push_word(*w);
        }
        assert_eq!(asm.ready(), 0);
        assert_eq!(asm.buf.len(), 3, "three words of a partial message");
        for w in &words[3..] {
            asm.push_word(*w);
        }
        assert_eq!(asm.ready(), 1);
    }

    #[test]
    fn assembler_counts_bad_commands() {
        let mut asm = MessageAssembler::new(MsgKind::Request);
        asm.push_word(0xF000_0000);
        assert_eq!(asm.errors(), 1);
        assert_eq!(asm.ready(), 0);
        // Stream recovers on the next valid header.
        for w in encode_request(&Transaction::read(0, 1, 0)) {
            asm.push_word(w);
        }
        assert_eq!(asm.ready(), 1);
    }

    #[test]
    fn response_assembler() {
        let r = TransactionResponse::with_data(3, vec![1]);
        let mut asm = MessageAssembler::new(MsgKind::Response);
        for w in encode_response(&r) {
            asm.push_word(w);
        }
        assert_eq!(asm.next_response(), Some(r));
    }

    #[test]
    #[should_panic(expected = "carries responses")]
    fn wrong_kind_panics() {
        let mut asm = MessageAssembler::new(MsgKind::Response);
        let _ = asm.next_request();
    }

    /// Loads `items` (errors, partial buffer, waiting messages) into a
    /// fresh request assembler.
    fn load(items: Vec<u64>) -> Result<MessageAssembler, noc_sim::PersistError> {
        let mut asm = MessageAssembler::new(MsgKind::Request);
        let mut loader = StateLoader::new(items);
        asm.walk(&mut loader);
        loader.finish().map(|()| asm)
    }

    #[test]
    fn restore_takes_only_what_framing_produces() {
        let read = encode_request(&Transaction::read(0x40, 2, 5));
        let hdr = u64::from(read[0]);
        // A partial message restores with its length re-derived from the
        // header: the next word completes it.
        let mut asm = load(vec![0, 1, hdr, 0]).expect("a header is a strict prefix");
        asm.push_word(read[1]);
        assert_eq!(asm.next_request(), Some(Transaction::read(0x40, 2, 5)));
        // An empty waiting message would panic at `next_request`.
        assert!(load(vec![0, 0, 1, 0]).is_err(), "empty waiting message");
        // A partial buffer as long as its message never frames again.
        assert!(load(vec![0, 2, hdr, 0x40, 0]).is_err(), "complete partial");
        assert!(
            load(vec![0, 3, hdr, 0x40, 7, 0]).is_err(),
            "overlong partial"
        );
        // Header bits that name no command frame nothing.
        assert!(load(vec![0, 1, 0xF000_0000, 0]).is_err(), "bad partial");
        assert!(
            load(vec![0, 0, 1, 2, 0xF000_0000, 0]).is_err(),
            "bad message"
        );
        assert!(
            load(vec![0, 0, 1, 3, hdr, 0x40, 7]).is_err(),
            "long message"
        );
        // Whatever a live assembler saves loads back.
        let mut live = MessageAssembler::new(MsgKind::Request);
        for &w in read.iter().chain(&read[..1]) {
            live.push_word(w);
        }
        let mut saver = StateSaver::new();
        live.walk(&mut saver);
        let mut back = load(saver.finish().expect("saves")).expect("loads");
        assert_eq!((back.ready(), back.buf.len()), (1, 1));
        back.push_word(read[1]);
        assert_eq!(back.ready(), 2);
    }
}
