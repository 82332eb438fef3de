//! The binary observer stream format (`PDPAOBS1`).
//!
//! A compact, length-prefixed frame encoding of [`TimedEvent`] streams —
//! the wire format the future `pdpad` daemon will speak, and an on-disk
//! alternative to the text lines of [`TimedEvent::to_line`]. Design goals,
//! in order: **exact round trip** (decoding reproduces the event
//! bit-for-bit, floats included — pinned against the text parser by
//! proptest), **streamability** (each frame is self-delimiting, so a
//! reader can process a stream incrementally and a truncated tail is
//! detected, not misparsed), and **compactness** (varints for ids and
//! counters, raw IEEE-754 bits for floats).
//!
//! # Layout
//!
//! A stream is the 8-byte magic [`MAGIC`] (`PDPAOBS1`) followed by zero or
//! more frames. Each frame is:
//!
//! ```text
//! uvarint payload_len | payload
//! ```
//!
//! where the payload is:
//!
//! ```text
//! u8 kind | f64le at | uvarint seq | per-kind fields
//! ```
//!
//! `uvarint` is unsigned LEB128 (7 bits per byte, high bit = continuation).
//! `f64le` is the 8 IEEE-754 bytes, little-endian — never reformatted, so
//! the round trip is exact by construction. Strings are `uvarint len`
//! followed by UTF-8 bytes. Options are a `u8` tag (0 = none, 1 = some)
//! followed by the value. Kind codes follow [`ObsEvent`] declaration order
//! (0 = `submit` … 15 = `failed`); the full field tables live in
//! OBSERVABILITY.md.

use std::io::{self, Write};
use std::ops::Range;

use pdpa_sim::{CpuId, JobId, SimTime};

use crate::collector::ExperimentFailure;
use crate::event::{DecisionTrigger, ObsEvent, StateName, TimedEvent};
use crate::observer::Observer;

/// The stream header: `PDPAOBS1` in ASCII. Doubles as the format version —
/// an incompatible revision bumps the trailing digit.
pub const MAGIC: [u8; 8] = *b"PDPAOBS1";

/// The smallest legal frame, in bytes: a one-byte length prefix, the kind
/// byte, the 8-byte timestamp, a one-byte `seq` and one one-byte field
/// (`submit`, `cpu_failed`, …). A stream of `n` bytes after the magic
/// therefore holds at most `n / 12` frames.
const MIN_FRAME: usize = 12;

/// True when `bytes` starts with the binary-stream magic. The text format
/// can never collide: its first byte is an ASCII digit of the timestamp.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Appends `v` as a uvarint (at most ten bytes, ⌈64 / 7⌉).
fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over one frame payload with diagnostic-bearing reads. The
/// reads are inlined and take one-byte (and, for varints, two- and
/// three-byte) fast paths; every error and the general varint loop are
/// out of line. `FAST = false` decodes every varint through that loop
/// alone, which is the reference the fast paths are tested against.
struct Cur<'a, const FAST: bool> {
    buf: &'a [u8],
    pos: usize,
}

#[cold]
#[inline(never)]
fn truncated(what: &str) -> String {
    format!("frame truncated reading {what}")
}

impl<'a, const FAST: bool> Cur<'a, FAST> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    #[inline]
    fn byte(&mut self, what: &str) -> Result<u8, String> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(truncated(what)),
        }
    }

    #[inline]
    fn uvarint(&mut self, what: &str) -> Result<u64, String> {
        if FAST {
            // Each arm is reached only when every earlier byte has its
            // continuation bit set; values below 2^21 cannot overflow.
            match self.buf[self.pos..] {
                [b0, ..] if b0 < 0x80 => {
                    self.pos += 1;
                    return Ok(u64::from(b0));
                }
                [b0, b1, ..] if b1 < 0x80 => {
                    self.pos += 2;
                    return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
                }
                [b0, b1, b2, ..] if b2 < 0x80 => {
                    self.pos += 3;
                    return Ok(u64::from(b0 & 0x7f)
                        | u64::from(b1 & 0x7f) << 7
                        | u64::from(b2) << 14);
                }
                _ => {}
            }
        }
        self.uvarint_loop(what)
    }

    /// The general LEB128 loop: long values, truncation and overflow.
    #[inline(never)]
    fn uvarint_loop(&mut self, what: &str) -> Result<u64, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte(what)?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(format!("varint overflow reading {what}"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline]
    fn f64(&mut self, what: &str) -> Result<f64, String> {
        match self.buf.get(self.pos..self.pos + 8) {
            Some(raw) => {
                self.pos += 8;
                let raw: [u8; 8] = raw.try_into().expect("an 8-byte slice");
                Ok(f64::from_bits(u64::from_le_bytes(raw)))
            }
            None => Err(truncated(what)),
        }
    }

    fn str(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.uvarint(what)? as usize;
        if self.buf.len() - self.pos < len {
            return Err(truncated(what));
        }
        let s = std::str::from_utf8(&self.buf[self.pos..self.pos + len])
            .map_err(|_| format!("{what} is not valid UTF-8"))?;
        self.pos += len;
        Ok(s)
    }

    #[inline]
    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let v = self.uvarint(what)?;
        u32::try_from(v).map_err(|_| format!("{what} {v} out of range"))
    }

    #[inline]
    fn bool(&mut self, what: &str) -> Result<bool, String> {
        match self.byte(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad bool byte {other} for {what}")),
        }
    }

    fn state(&mut self, what: &str) -> Result<StateName, String> {
        StateName::intern(self.str(what)?).map_err(|e| format!("{what}: {e}"))
    }

    #[inline]
    fn usize(&mut self, what: &str) -> Result<usize, String> {
        usize::try_from(self.uvarint(what)?).map_err(|_| format!("{what} does not fit in usize"))
    }

    #[inline]
    fn job(&mut self) -> Result<JobId, String> {
        let v = self.uvarint("job")?;
        Ok(JobId(
            u32::try_from(v).map_err(|_| format!("job id {v} out of range"))?,
        ))
    }

    #[inline]
    fn cpu(&mut self) -> Result<CpuId, String> {
        let v = self.uvarint("cpu")?;
        Ok(CpuId(
            u16::try_from(v).map_err(|_| format!("cpu id {v} out of range"))?,
        ))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn trigger_code(t: DecisionTrigger) -> u8 {
    match t {
        DecisionTrigger::Arrival => 0,
        DecisionTrigger::Report => 1,
        DecisionTrigger::Completion => 2,
        DecisionTrigger::Fault => 3,
    }
}

fn encode_payload(at: SimTime, seq: u64, event: &ObsEvent, out: &mut Vec<u8>) {
    // Kind codes are the declaration order, which `kind_index` is.
    out.push(event.kind_index() as u8);
    put_f64(out, at.as_secs());
    put_uvarint(out, seq);
    match event {
        ObsEvent::JobSubmitted { job }
        | ObsEvent::JobDequeued { job }
        | ObsEvent::JobFinished { job } => {
            put_uvarint(out, u64::from(job.0));
        }
        ObsEvent::JobStarted { job, request } => {
            put_uvarint(out, u64::from(job.0));
            put_uvarint(out, *request as u64);
        }
        ObsEvent::IterationMeasured {
            job,
            procs,
            iter_secs,
            speedup,
            efficiency,
            estimated,
        } => {
            put_uvarint(out, u64::from(job.0));
            put_uvarint(out, *procs as u64);
            put_f64(out, *iter_secs);
            put_f64(out, *speedup);
            put_f64(out, *efficiency);
            out.push(u8::from(*estimated));
        }
        ObsEvent::Decision {
            trigger,
            job,
            from_alloc,
            to_alloc,
            transition,
        } => {
            out.push(trigger_code(*trigger));
            put_uvarint(out, u64::from(job.0));
            put_uvarint(out, *from_alloc as u64);
            put_uvarint(out, *to_alloc as u64);
            match transition {
                None => out.push(0),
                Some((from, to)) => {
                    out.push(1);
                    put_str(out, from.as_str());
                    put_str(out, to.as_str());
                }
            }
        }
        ObsEvent::StateChanged { job, from, to } => {
            put_uvarint(out, u64::from(job.0));
            put_str(out, from.as_str());
            put_str(out, to.as_str());
        }
        ObsEvent::MplChanged {
            running,
            total_alloc,
        } => {
            put_uvarint(out, *running as u64);
            put_uvarint(out, *total_alloc as u64);
        }
        ObsEvent::ReallocCost {
            job,
            penalty_secs,
            gained,
            lost,
        } => {
            put_uvarint(out, u64::from(job.0));
            put_f64(out, *penalty_secs);
            put_uvarint(out, *gained as u64);
            put_uvarint(out, *lost as u64);
        }
        ObsEvent::CpuAssigned { cpu, job } => {
            put_uvarint(out, u64::from(cpu.0));
            match job {
                None => out.push(0),
                Some(j) => {
                    out.push(1);
                    put_uvarint(out, u64::from(j.0));
                }
            }
        }
        ObsEvent::CpuFailed { cpu } | ObsEvent::CpuRecovered { cpu } => {
            put_uvarint(out, u64::from(cpu.0));
        }
        ObsEvent::DegradedCapacity { alive, total } => {
            put_uvarint(out, *alive as u64);
            put_uvarint(out, *total as u64);
        }
        ObsEvent::JobRetried {
            job,
            attempt,
            backoff_secs,
        } => {
            put_uvarint(out, u64::from(job.0));
            put_uvarint(out, u64::from(*attempt));
            put_f64(out, *backoff_secs);
        }
        ObsEvent::JobFailed { job, attempts } => {
            put_uvarint(out, u64::from(job.0));
            put_uvarint(out, u64::from(*attempts));
        }
        ObsEvent::ExperimentFailed(failure) => {
            put_str(out, &failure.name);
            put_str(out, &failure.message);
        }
    }
}

/// Appends the frame of `event` stamped `(at, seq)` to `out`. The payload
/// is encoded in place behind a one-byte length slot that is patched
/// afterwards; the rare payload of 128 bytes or more (only `failed` frames
/// carry text that long) widens the slot to its full varint.
#[inline(always)]
fn encode_frame(at: SimTime, seq: u64, event: &ObsEvent, out: &mut Vec<u8>) {
    let slot = out.len();
    out.push(0);
    encode_payload(at, seq, event, out);
    let len = out.len() - slot - 1;
    if len < 0x80 {
        out[slot] = len as u8;
    } else {
        let mut prefix = Vec::with_capacity(10);
        put_uvarint(&mut prefix, len as u64);
        out.splice(slot..=slot, prefix);
    }
}

#[inline(always)]
fn decode_payload<const FAST: bool>(payload: &[u8]) -> Result<TimedEvent, String> {
    let mut cur = Cur::<FAST>::new(payload);
    let kind = cur.byte("event kind")?;
    let at = cur.f64("timestamp")?;
    if !(at.is_finite() && at >= 0.0) {
        return Err(format!("timestamp {at} out of range"));
    }
    let seq = cur.uvarint("seq")?;
    let event = match kind {
        0 => ObsEvent::JobSubmitted { job: cur.job()? },
        1 => ObsEvent::JobDequeued { job: cur.job()? },
        2 => ObsEvent::JobStarted {
            job: cur.job()?,
            request: cur.usize("request")?,
        },
        3 => ObsEvent::JobFinished { job: cur.job()? },
        4 => ObsEvent::IterationMeasured {
            job: cur.job()?,
            procs: cur.usize("procs")?,
            iter_secs: cur.f64("iter_secs")?,
            speedup: cur.f64("speedup")?,
            efficiency: cur.f64("efficiency")?,
            estimated: cur.bool("estimated")?,
        },
        5 => {
            let trigger = match cur.byte("trigger")? {
                0 => DecisionTrigger::Arrival,
                1 => DecisionTrigger::Report,
                2 => DecisionTrigger::Completion,
                3 => DecisionTrigger::Fault,
                other => return Err(format!("unknown trigger code {other}")),
            };
            let job = cur.job()?;
            let from_alloc = cur.usize("from_alloc")?;
            let to_alloc = cur.usize("to_alloc")?;
            let transition = match cur.byte("transition tag")? {
                0 => None,
                1 => Some((cur.state("transition from")?, cur.state("transition to")?)),
                other => return Err(format!("bad option tag {other} for transition")),
            };
            ObsEvent::Decision {
                trigger,
                job,
                from_alloc,
                to_alloc,
                transition,
            }
        }
        6 => ObsEvent::StateChanged {
            job: cur.job()?,
            from: cur.state("from state")?,
            to: cur.state("to state")?,
        },
        7 => ObsEvent::MplChanged {
            running: cur.usize("running")?,
            total_alloc: cur.usize("total_alloc")?,
        },
        8 => ObsEvent::ReallocCost {
            job: cur.job()?,
            penalty_secs: cur.f64("penalty_secs")?,
            gained: cur.usize("gained")?,
            lost: cur.usize("lost")?,
        },
        9 => {
            let cpu = cur.cpu()?;
            let job = match cur.byte("occupant tag")? {
                0 => None,
                1 => Some(cur.job()?),
                other => return Err(format!("bad option tag {other} for occupant")),
            };
            ObsEvent::CpuAssigned { cpu, job }
        }
        10 => ObsEvent::CpuFailed { cpu: cur.cpu()? },
        11 => ObsEvent::CpuRecovered { cpu: cur.cpu()? },
        12 => ObsEvent::DegradedCapacity {
            alive: cur.usize("alive")?,
            total: cur.usize("total")?,
        },
        13 => ObsEvent::JobRetried {
            job: cur.job()?,
            attempt: cur.u32("attempt")?,
            backoff_secs: cur.f64("backoff_secs")?,
        },
        14 => ObsEvent::JobFailed {
            job: cur.job()?,
            attempts: cur.u32("attempts")?,
        },
        15 => ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
            name: cur.str("name")?.to_string(),
            message: cur.str("message")?.to_string(),
        })),
        other => return Err(format!("unknown event kind code {other}")),
    };
    if !cur.done() {
        return Err(format!(
            "frame for kind code {kind} has {} trailing bytes",
            payload.len() - cur.pos
        ));
    }
    Ok(TimedEvent {
        at: SimTime::from_secs(at),
        seq,
        event,
    })
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

/// Writes a stream event by event, in either encoding: the `PDPAOBS1`
/// frames of [`write_stream`] or the lines of [`write_text_stream`]. Works
/// over any `io::Write` (file, socket, `Vec<u8>`).
///
/// As an [`Observer`] it numbers the events it receives `0, 1, …`, as a
/// [`RecordingObserver`](crate::RecordingObserver) does, so a run written
/// as it publishes produces the bytes of its recorded stream written after
/// the run. A writer [`starting_at`](Self::starting_at) a mark numbers
/// every event but writes only those from the mark on. An observer cannot
/// return an error, so the first write or flush error is kept, later
/// events are dropped, and [`flush`](Self::flush) and
/// [`finish`](Self::finish) report it.
pub struct StreamWriter<W: Write> {
    out: W,
    binary: bool,
    buf: Vec<u8>,
    /// The seq the next event receives.
    seq: u64,
    /// Events numbered below this are counted but not written.
    start: u64,
    events: u64,
    error: Option<io::Error>,
}

impl<W: Write> StreamWriter<W> {
    /// A binary writer; writes the stream magic.
    pub fn binary(mut out: W) -> io::Result<Self> {
        out.write_all(&MAGIC)?;
        Ok(Self::new(out, true))
    }

    /// A text writer: one [`TimedEvent::to_line`] line per event.
    pub fn text(out: W) -> Self {
        Self::new(out, false)
    }

    fn new(out: W, binary: bool) -> Self {
        StreamWriter {
            out,
            binary,
            buf: Vec::with_capacity(64),
            seq: 0,
            start: 0,
            events: 0,
            error: None,
        }
    }

    /// The writer, writing only events numbered `start` or later. A
    /// restored run replays its journal to rebuild its state, publishing
    /// again the events the previous process already wrote; its stream
    /// starts at the first one it did not, and the seq numbers run on
    /// from the previous stream's.
    pub fn starting_at(mut self, start: u64) -> Self {
        self.start = start;
        self
    }

    fn write_event(&mut self, at: SimTime, seq: u64, event: &ObsEvent) -> io::Result<()> {
        self.buf.clear();
        if self.binary {
            encode_frame(at, seq, event, &mut self.buf);
        } else {
            self.buf
                .extend_from_slice(crate::event::line(at, seq, event).as_bytes());
            self.buf.push(b'\n');
        }
        self.out.write_all(&self.buf)?;
        self.events += 1;
        Ok(())
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes the underlying writer and returns the first write or flush
    /// error, if any. After one the stream is short, and it stays so:
    /// every later call returns the same error.
    pub fn flush(&mut self) -> Option<&io::Error> {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer, or the first error a
    /// write or flush met.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush();
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl<W: Write> Observer for StreamWriter<W> {
    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        let seq = self.seq;
        self.seq += 1;
        if seq >= self.start && self.error.is_none() {
            self.error = self.write_event(at, seq, event).err();
        }
    }
}

/// Encodes a whole stream into a buffer (magic + frames). The buffer is
/// sized for 32 bytes a frame up front (the mean frame is about 30), so a
/// long stream is not copied through a chain of doublings.
pub fn write_stream(events: &[TimedEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + events.len() * 32);
    out.extend_from_slice(&MAGIC);
    for ev in events {
        encode_frame(ev.at, ev.seq, &ev.event, &mut out);
    }
    out
}

/// Decodes a binary stream (must start with [`MAGIC`]).
///
/// # Errors
///
/// Returns a diagnostic naming the frame index, the absolute byte offset of
/// the frame's start within the stream, and the offending field on
/// malformed or truncated input — enough to seek straight to the first bad
/// frame of a corrupt capture.
///
/// A first pass walks the length prefixes to count the frames, so the
/// result is allocated once at its exact size. The capacity never exceeds
/// one event per 12 bytes (the smallest legal frame), so no length field
/// can make the decoder allocate more than the input justifies.
pub fn read_stream(bytes: &[u8]) -> Result<Vec<TimedEvent>, String> {
    if !is_binary(bytes) {
        return Err("not a PDPAOBS1 binary stream (bad magic)".to_string());
    }
    // Count the frames up to the first framing error, which is reported
    // only if every frame before it decodes.
    let mut frames = 0;
    let mut at = MAGIC.len();
    let mut framing = Ok(());
    while at < bytes.len() {
        match frame_payload(bytes, at, frames) {
            Ok(payload) => {
                frames += 1;
                at = payload.end;
            }
            Err(e) => {
                framing = Err(e);
                break;
            }
        }
    }
    let most = (bytes.len() - MAGIC.len()) / MIN_FRAME;
    let mut events = Vec::with_capacity(frames.min(most));
    let mut at = MAGIC.len();
    for index in 0..frames {
        let payload = frame_payload(bytes, at, index)?;
        let ev = decode_payload::<true>(&bytes[payload.clone()])
            .map_err(|e| format!("frame {index} at byte {at}: {e}"))?;
        events.push(ev);
        at = payload.end;
    }
    framing.map(|()| events)
}

/// The payload range of frame `index`, whose length prefix starts at
/// absolute offset `at` of `bytes`. Every frame but a long `failed` one
/// has a one-byte length prefix.
#[inline]
fn frame_payload(bytes: &[u8], at: usize, index: usize) -> Result<Range<usize>, String> {
    if let Some(&len) = bytes.get(at) {
        let end = at + 1 + usize::from(len);
        if len < 0x80 && end <= bytes.len() {
            return Ok(at + 1..end);
        }
    }
    frame_payload_loop(bytes, at, index)
}

/// [`frame_payload`] for a multi-byte length prefix, and every framing
/// error.
#[inline(never)]
fn frame_payload_loop(bytes: &[u8], at: usize, index: usize) -> Result<Range<usize>, String> {
    let rest = &bytes[at..];
    let mut cur = Cur::<false>::new(rest);
    let len = cur
        .uvarint("frame length")
        .map_err(|e| format!("frame {index} at byte {at}: {e}"))?;
    let start = cur.pos;
    let len = usize::try_from(len)
        .map_err(|_| format!("frame {index} at byte {at}: length {len} does not fit in memory"))?;
    if rest.len() - start < len {
        return Err(format!(
            "frame {index} at byte {at}: stream truncated \
             ({} payload bytes present, {len} declared)",
            rest.len() - start
        ));
    }
    Ok(at + start..at + start + len)
}

/// Serializes a stream in the text format: one [`TimedEvent::to_line`]
/// line per event, `\n`-terminated. The inverse of the text path of
/// [`parse_stream`].
pub fn write_text_stream(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_line());
        out.push('\n');
    }
    out
}

/// Parses an observer stream of either format, auto-detected by magic
/// bytes: `PDPAOBS1` → binary frames, anything else → text lines through
/// [`TimedEvent::parse_line`].
///
/// # Errors
///
/// Returns the underlying codec's diagnostic, prefixed with the line
/// number for text streams.
pub fn parse_stream(bytes: &[u8]) -> Result<Vec<TimedEvent>, String> {
    if is_binary(bytes) {
        return read_stream(bytes);
    }
    stream_events(bytes)?.collect()
}

/// The events of an observer stream of either format (auto-detected as by
/// [`parse_stream`]), decoded one at a time, for a reader that folds or
/// compares them and has no use for the vector.
///
/// # Errors
///
/// A text stream that is not UTF-8 fails here. Every other diagnostic is
/// the item where [`parse_stream`] would stop, with the same text (`frame
/// N at byte M: …` or `line N: …`); the walk ends after it.
pub fn stream_events(bytes: &[u8]) -> Result<StreamEvents<'_>, String> {
    if is_binary(bytes) {
        return Ok(StreamEvents(Walk::Binary {
            bytes,
            at: MAGIC.len(),
            index: 0,
        }));
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|_| "stream is neither PDPAOBS1 binary nor UTF-8 text".to_string())?;
    Ok(StreamEvents(Walk::Text(text.lines().enumerate())))
}

/// The iterator of [`stream_events`].
#[derive(Debug)]
pub struct StreamEvents<'a>(Walk<'a>);

#[derive(Debug)]
enum Walk<'a> {
    /// The next frame's length prefix starts at byte `at`.
    Binary {
        bytes: &'a [u8],
        at: usize,
        index: usize,
    },
    Text(std::iter::Enumerate<std::str::Lines<'a>>),
    /// After an error.
    Done,
}

impl Iterator for StreamEvents<'_> {
    type Item = Result<TimedEvent, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = match &mut self.0 {
            Walk::Binary { bytes, at, index } => {
                if *at >= bytes.len() {
                    return None;
                }
                frame_payload(bytes, *at, *index).and_then(|payload| {
                    let ev = decode_payload::<true>(&bytes[payload.clone()])
                        .map_err(|e| format!("frame {index} at byte {at}: {e}"))?;
                    *at = payload.end;
                    *index += 1;
                    Ok(ev)
                })
            }
            Walk::Text(lines) => loop {
                let (i, line) = lines.next()?;
                if !line.is_empty() {
                    break TimedEvent::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1));
                }
            },
            Walk::Done => return None,
        };
        if item.is_err() {
            self.0 = Walk::Done;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(at: f64, seq: u64, event: ObsEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        }
    }

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            te(0.5, 0, ObsEvent::JobSubmitted { job: JobId(3) }),
            te(
                1.0,
                1,
                ObsEvent::Decision {
                    trigger: DecisionTrigger::Report,
                    job: JobId(3),
                    from_alloc: 30,
                    to_alloc: 26,
                    transition: Some((StateName::NO_REF, StateName::DEC)),
                },
            ),
            te(
                1.0,
                2,
                ObsEvent::IterationMeasured {
                    job: JobId(3),
                    procs: 26,
                    iter_secs: 0.123456789,
                    speedup: 11.5,
                    efficiency: 0.442,
                    estimated: true,
                },
            ),
            te(
                2.0,
                3,
                ObsEvent::CpuAssigned {
                    cpu: CpuId(59),
                    job: None,
                },
            ),
            te(
                3.0,
                4,
                ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
                    name: "table2".into(),
                    message: "panic: \"quoted\"\nwith newline".into(),
                })),
            ),
        ]
    }

    #[test]
    fn round_trips_sample_events() {
        let events = sample_events();
        let bytes = write_stream(&events);
        assert!(is_binary(&bytes));
        assert_eq!(read_stream(&bytes).expect("decodes"), events);
    }

    #[test]
    fn a_writer_observer_writes_the_recorded_stream() {
        use crate::observer::RecordingObserver;
        let mut events = sample_events();
        for (seq, ev) in events.iter_mut().enumerate() {
            ev.seq = seq as u64;
        }
        let mut binary = StreamWriter::binary(Vec::new()).expect("Vec write cannot fail");
        let mut text = StreamWriter::text(Vec::new());
        let mut recorder = RecordingObserver::new();
        for ev in &events {
            binary.on_event(ev.at, &ev.event);
            text.on_event(ev.at, &ev.event);
            recorder.on_event(ev.at, &ev.event);
        }
        assert_eq!(recorder.events(), &events[..], "the recorder numbers alike");
        assert_eq!((binary.events(), text.events()), (5, 5));
        assert_eq!(binary.finish().expect("flush"), write_stream(&events));
        assert_eq!(
            text.finish().expect("flush"),
            write_text_stream(&events).into_bytes()
        );
    }

    #[test]
    fn a_writer_keeps_its_first_error_for_finish() {
        #[derive(Debug)]
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = StreamWriter::text(Full);
        for ev in sample_events() {
            w.on_event(ev.at, &ev.event);
        }
        assert_eq!(w.events(), 0);
        let err = w.finish().expect_err("the write error surfaces");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn a_writer_counts_but_does_not_write_below_its_start_mark() {
        let events = sample_events();
        let mut w = StreamWriter::text(Vec::new()).starting_at(2);
        for ev in &events {
            w.on_event(ev.at, &ev.event);
        }
        assert_eq!(
            w.events(),
            3,
            "the two events below the mark are not written"
        );
        let written = String::from_utf8(w.finish().expect("Vec write cannot fail")).unwrap();
        let kept: Vec<TimedEvent> = events
            .iter()
            .enumerate()
            .skip(2)
            .map(|(seq, ev)| TimedEvent {
                seq: seq as u64,
                ..ev.clone()
            })
            .collect();
        assert_eq!(
            written,
            write_text_stream(&kept),
            "seq numbers run on past the mark"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn flush_keeps_the_first_error_and_later_events_are_dropped() {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens for writing");
        let mut w = StreamWriter::text(io::BufWriter::new(file));
        let events = sample_events();
        w.on_event(events[0].at, &events[0].event);
        assert_eq!(w.events(), 1, "the line waits in the buffer");
        let first = w
            .flush()
            .expect("the flush meets a full device")
            .to_string();
        assert!(first.contains("No space left on device"), "{first}");
        for ev in &events[1..] {
            w.on_event(ev.at, &ev.event);
        }
        assert_eq!(w.events(), 1, "events after the error are dropped");
        assert_eq!(
            w.flush().map(ToString::to_string),
            Some(first.clone()),
            "the first error is kept"
        );
        let err = w.finish().expect_err("finish reports the kept error");
        assert_eq!(err.to_string(), first);
    }

    #[test]
    fn the_walker_yields_what_parse_stream_returns() {
        let events = sample_events();
        for bytes in [
            write_stream(&events),
            write_text_stream(&events).into_bytes(),
        ] {
            let walked: Result<Vec<_>, _> = stream_events(&bytes).expect("detects").collect();
            assert_eq!(walked.expect("decodes"), events);
        }
        // A truncated stream yields its good frames, then the error, then
        // nothing.
        let bytes = write_stream(&events);
        let mut walk = stream_events(&bytes[..bytes.len() - 3]).expect("magic");
        for ev in &events[..events.len() - 1] {
            assert_eq!(walk.next().expect("a frame").as_ref(), Ok(ev));
        }
        let err = walk.next().expect("an error").expect_err("truncated");
        assert_eq!(Err(err), read_stream(&bytes[..bytes.len() - 3]));
        assert!(walk.next().is_none());
        assert!(stream_events(&[0xff, 0xfe]).is_err(), "neither format");
    }

    #[test]
    fn parse_stream_auto_detects_both_formats() {
        let events = sample_events();
        let binary = write_stream(&events);
        let text = write_text_stream(&events);
        assert!(!is_binary(text.as_bytes()));
        assert_eq!(parse_stream(&binary).expect("binary decodes"), events);
        assert_eq!(parse_stream(text.as_bytes()).expect("text parses"), events);
    }

    #[test]
    fn truncated_stream_is_a_diagnostic_not_a_misparse() {
        let bytes = write_stream(&sample_events());
        let cut = &bytes[..bytes.len() - 3];
        let err = read_stream(cut).expect_err("truncation must error");
        assert!(err.contains("truncated"), "got: {err}");
    }

    #[test]
    fn truncation_error_names_frame_index_and_byte_offset() {
        let events = sample_events();
        let bytes = write_stream(&events);
        // Find where frame 2 starts by decoding the first two frames by
        // hand: magic, then per frame a uvarint length plus that many
        // payload bytes.
        let mut offset = MAGIC.len();
        for _ in 0..2 {
            let mut cur = Cur::<true>::new(&bytes[offset..]);
            let len = cur.uvarint("len").expect("valid stream") as usize;
            offset += cur.pos + len;
        }
        // Cut in the middle of frame 2's payload: the error must name
        // frame 2 and its absolute starting byte offset.
        let cut = &bytes[..offset + 3];
        let err = read_stream(cut).expect_err("mid-frame truncation must error");
        assert!(
            err.contains(&format!("frame 2 at byte {offset}")),
            "got: {err}"
        );
        assert!(err.contains("truncated"), "got: {err}");
    }

    #[test]
    fn corrupt_frame_error_names_byte_offset() {
        let events = sample_events();
        let mut bytes = write_stream(&events);
        // Frame 0 starts right after the magic; corrupt its kind byte
        // (first payload byte after the 1-byte length prefix).
        let frame_at = MAGIC.len();
        bytes[frame_at + 1] = 0xFF;
        let err = read_stream(&bytes).expect_err("bad kind must error");
        assert!(
            err.contains(&format!("frame 0 at byte {frame_at}")),
            "got: {err}"
        );
    }

    #[test]
    fn trailing_frame_bytes_are_rejected() {
        let ev = te(1.0, 0, ObsEvent::JobFinished { job: JobId(1) });
        let mut payload = Vec::new();
        encode_payload(ev.at, ev.seq, &ev.event, &mut payload);
        payload.push(0xAA); // junk past the decoded fields
        let mut bytes = MAGIC.to_vec();
        put_uvarint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        let err = read_stream(&bytes).expect_err("trailing bytes must error");
        assert!(err.contains("trailing"), "got: {err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_stream(b"NOTMAGIC").expect_err("bad magic must error");
        assert!(err.contains("magic"), "got: {err}");
    }

    /// FNV-1a, enough to pin a byte stream in a constant.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// An `ExperimentFailed` frame whose payload is 13 bytes of header
    /// (kind, time, seq, the name `x`) plus the message and its length.
    fn failure_of(message_len: usize) -> TimedEvent {
        let message = (0..message_len)
            .map(|k| char::from(b'a' + (k % 26) as u8))
            .collect();
        te(
            1.5,
            0,
            ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
                name: "x".into(),
                message,
            })),
        )
    }

    #[test]
    fn long_payloads_widen_the_length_prefix() {
        // (message bytes, payload bytes, expected prefix, FNV-1a of the
        // one-frame stream as the earlier two-buffer encoder wrote it).
        let cases: [(usize, usize, &[u8], u64); 4] = [
            (114, 127, &[0x7f], 0xb7fa_9714_824f_2c4a),
            (115, 128, &[0x80, 0x01], 0x9f8e_f733_9613_2f4a),
            (186, 200, &[0xc8, 0x01], 0x3ae7_6739_07ac_3097),
            (19_985, 20_000, &[0xa0, 0x9c, 0x01], 0xba55_9289_4fb4_941c),
        ];
        let mut all = Vec::new();
        for (i, &(message_len, payload_len, prefix, digest)) in cases.iter().enumerate() {
            let ev = failure_of(message_len);
            let bytes = write_stream(std::slice::from_ref(&ev));
            assert_eq!(bytes.len(), MAGIC.len() + prefix.len() + payload_len);
            assert_eq!(&bytes[MAGIC.len()..MAGIC.len() + prefix.len()], prefix);
            assert_eq!(fnv1a(&bytes), digest, "payload of {payload_len} bytes");
            assert_eq!(read_stream(&bytes).expect("decodes"), vec![ev.clone()]);
            all.push(ev);
            all.push(te(
                2.0,
                i as u64 + 1,
                ObsEvent::JobFinished { job: JobId(7) },
            ));
        }
        // Frames after a widened prefix stay aligned.
        let bytes = write_stream(&all);
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (20_519, 0x90b8_64d1_d339_c2f2)
        );
        assert_eq!(read_stream(&bytes).expect("decodes"), all);
        // The streaming writer, which numbers events itself, produces the
        // bytes of the whole-buffer encoder.
        for (seq, ev) in all.iter_mut().enumerate() {
            ev.seq = seq as u64;
        }
        let mut w = StreamWriter::binary(Vec::new()).expect("Vec write cannot fail");
        for ev in &all {
            w.on_event(ev.at, &ev.event);
        }
        assert_eq!(w.events(), all.len() as u64);
        assert_eq!(
            w.finish().expect("Vec flush cannot fail"),
            write_stream(&all)
        );
    }

    /// Builds a one-frame stream around a hand-made payload.
    fn one_frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        put_uvarint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn retry_counts_past_u32_are_rejected_not_truncated() {
        for (kind, field) in [(13u8, "attempt"), (14, "attempts")] {
            let mut payload = vec![kind];
            put_f64(&mut payload, 1.0);
            put_uvarint(&mut payload, 0); // seq
            put_uvarint(&mut payload, 2); // job
            put_uvarint(&mut payload, (1u64 << 32) + 1);
            if kind == 13 {
                put_f64(&mut payload, 30.0); // backoff_secs
            }
            let err = read_stream(&one_frame(&payload)).expect_err("2^32 + 1 must not decode");
            assert!(err.contains("frame 0 at byte 8"), "got: {err}");
            assert!(err.contains(field), "got: {err}");
        }
    }

    #[test]
    fn estimated_must_be_zero_or_one() {
        let ev = te(
            1.0,
            0,
            ObsEvent::IterationMeasured {
                job: JobId(1),
                procs: 4,
                iter_secs: 0.5,
                speedup: 3.0,
                efficiency: 0.75,
                estimated: true,
            },
        );
        let mut bytes = write_stream(&[ev]);
        let last = bytes.len() - 1;
        assert_eq!(bytes[last], 1, "estimated is the frame's last byte");
        bytes[last] = 2;
        let err = read_stream(&bytes).expect_err("a bool byte of 2 must not decode");
        assert!(err.contains("frame 0 at byte 8"), "got: {err}");
        assert!(err.contains("estimated"), "got: {err}");
    }

    #[test]
    fn non_finite_or_negative_timestamps_are_rejected() {
        for at in [f64::NAN, f64::INFINITY, -1.0] {
            let mut payload = vec![3u8]; // finish
            put_f64(&mut payload, at);
            put_uvarint(&mut payload, 0); // seq
            put_uvarint(&mut payload, 1); // job
            let err = read_stream(&one_frame(&payload)).expect_err("bad time must not decode");
            assert!(err.contains("frame 0 at byte 8: timestamp"), "got: {err}");
        }
    }

    #[test]
    fn decoded_capacity_is_bounded_by_the_input() {
        let bytes = write_stream(&sample_events());
        let events = read_stream(&bytes).expect("decodes");
        assert_eq!(events.capacity(), events.len(), "sized exactly");
        assert!(events.capacity() <= bytes.len() / MIN_FRAME);
        // The smallest frame really is MIN_FRAME bytes.
        let small = write_stream(&[te(0.0, 0, ObsEvent::CpuFailed { cpu: CpuId(1) })]);
        assert_eq!(small.len(), MAGIC.len() + MIN_FRAME);
    }

    #[test]
    fn varints_span_the_u64_range() {
        let mut buf = Vec::new();
        let widths = [7, 14, 21, 28].map(|bits| (1u64 << bits) - 1);
        let edges = widths.into_iter().flat_map(|v| [v, v + 1]);
        for v in [0u64, 1, 300, u64::from(u32::MAX), u64::MAX]
            .into_iter()
            .chain(edges)
        {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut fast = Cur::<true>::new(&buf);
            assert_eq!(fast.uvarint("v").expect("decodes"), v);
            assert!(fast.done());
            let mut reference = Cur::<false>::new(&buf);
            assert_eq!(reference.uvarint("v").expect("decodes"), v);
            // Every strict prefix is a truncation on both paths.
            for cut in 0..buf.len() {
                let fast = Cur::<true>::new(&buf[..cut]).uvarint("v");
                let reference = Cur::<false>::new(&buf[..cut]).uvarint("v");
                assert_eq!(fast, reference);
                assert_eq!(fast, Err("frame truncated reading v".to_string()));
            }
        }
    }

    #[test]
    fn non_canonical_and_overlong_varints_match_the_loop() {
        let cases: [&[u8]; 6] = [
            &[0x80, 0x00],
            &[0xff, 0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x00],
            &[0xff; 10],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
        ];
        for bytes in cases {
            let fast = Cur::<true>::new(bytes).uvarint("v");
            let reference = Cur::<false>::new(bytes).uvarint("v");
            assert_eq!(fast, reference, "{bytes:02x?}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, 0.1 + 0.2] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut cur = Cur::<true>::new(&buf);
            assert_eq!(cur.f64("v").expect("decodes").to_bits(), v.to_bits());
        }
    }
}

#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;

    /// The decoder without the fast paths: every length prefix and every
    /// varint field through the per-byte loop, with the counting pass in
    /// front. The fast paths must agree with it on every input.
    fn reference_read_stream(bytes: &[u8]) -> Result<Vec<TimedEvent>, String> {
        if !is_binary(bytes) {
            return Err("not a PDPAOBS1 binary stream (bad magic)".to_string());
        }
        let mut frames = 0;
        let mut at = MAGIC.len();
        let mut framing = Ok(());
        while at < bytes.len() {
            match frame_payload_loop(bytes, at, frames) {
                Ok(payload) => {
                    frames += 1;
                    at = payload.end;
                }
                Err(e) => {
                    framing = Err(e);
                    break;
                }
            }
        }
        let mut events = Vec::with_capacity(frames);
        let mut at = MAGIC.len();
        for index in 0..frames {
            let payload = frame_payload_loop(bytes, at, index)?;
            let ev = decode_payload::<false>(&bytes[payload.clone()])
                .map_err(|e| format!("frame {index} at byte {at}: {e}"))?;
            events.push(ev);
            at = payload.end;
        }
        framing.map(|()| events)
    }

    /// Both decoders' results, rendered (`Debug` prints a NaN the same
    /// way twice, where `==` would not match it).
    fn both(bytes: &[u8]) -> (String, String) {
        (
            format!("{:?}", read_stream(bytes)),
            format!("{:?}", reference_read_stream(bytes)),
        )
    }

    /// A value next to a varint width boundary (2^7, 2^14, 2^21, 2^28)
    /// or at either end of the range, capped at `max`.
    fn straddle(max: u64) -> impl Strategy<Value = u64> {
        (0usize..6, 0u64..3).prop_map(move |(k, d)| {
            let base = [0, 1 << 7, 1 << 14, 1 << 21, 1 << 28, u64::MAX][k];
            base.saturating_sub(1).saturating_add(d).min(max)
        })
    }

    const STATES: [StateName; 4] = [
        StateName::NO_REF,
        StateName::INC,
        StateName::DEC,
        StateName::STABLE,
    ];

    /// One event of kind `kind % 16` built from straddling values. State
    /// names are the fixed four, so decoding interns nothing.
    fn event(kind: u8, v: [u64; 3], text_len: usize) -> ObsEvent {
        let [a, b, c] = v;
        let job = JobId(a.min(u64::from(u32::MAX)) as u32);
        let cpu = CpuId(b.min(u64::from(u16::MAX)) as u16);
        let (b, c) = (b as usize, c as usize);
        let x = a as f64 / 7.0;
        match kind % 16 {
            0 => ObsEvent::JobSubmitted { job },
            1 => ObsEvent::JobDequeued { job },
            2 => ObsEvent::JobStarted { job, request: b },
            3 => ObsEvent::JobFinished { job },
            4 => ObsEvent::IterationMeasured {
                job,
                procs: b,
                iter_secs: x,
                speedup: -x,
                efficiency: f64::NAN,
                estimated: c % 2 == 0,
            },
            5 => ObsEvent::Decision {
                trigger: DecisionTrigger::Fault,
                job,
                from_alloc: b,
                to_alloc: c,
                transition: (c % 3 != 0).then(|| (STATES[b % 4], STATES[c % 4])),
            },
            6 => ObsEvent::StateChanged {
                job,
                from: STATES[b % 4],
                to: STATES[c % 4],
            },
            7 => ObsEvent::MplChanged {
                running: b,
                total_alloc: c,
            },
            8 => ObsEvent::ReallocCost {
                job,
                penalty_secs: x,
                gained: b,
                lost: c,
            },
            9 => ObsEvent::CpuAssigned {
                cpu,
                job: (c % 2 == 0).then_some(job),
            },
            10 => ObsEvent::CpuFailed { cpu },
            11 => ObsEvent::CpuRecovered { cpu },
            12 => ObsEvent::DegradedCapacity { alive: b, total: c },
            13 => ObsEvent::JobRetried {
                job,
                attempt: c.min(u32::MAX as usize) as u32,
                backoff_secs: x,
            },
            14 => ObsEvent::JobFailed {
                job,
                attempts: c.min(u32::MAX as usize) as u32,
            },
            _ => ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
                name: "x".repeat(text_len % 7),
                message: "m".repeat(115 + text_len),
            })),
        }
    }

    /// A valid stream of 1–24 events drawn from `kinds`; `failed` frames
    /// carry payloads of 128 bytes or more.
    fn arb_stream(kinds: &'static [u8]) -> impl Strategy<Value = Vec<TimedEvent>> {
        let spec = (
            0..kinds.len(),
            straddle(u64::MAX),
            straddle(u64::from(u32::MAX)),
            straddle(u64::MAX),
            straddle(u64::MAX),
            0usize..300,
        );
        proptest::collection::vec(spec, 1..24).prop_map(move |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (k, seq, a, b, c, text_len))| TimedEvent {
                    at: SimTime::from_secs(i as f64 * 0.5),
                    seq,
                    event: event(kinds[k], [a, b, c], text_len),
                })
                .collect()
        })
    }

    const ALL_KINDS: &[u8] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
    /// Every kind without a state-name field: a mutated name would be
    /// interned in the process-wide table other tests here rely on.
    const NAMELESS_KINDS: &[u8] = &[0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15];

    /// True when a frame that decoding reaches has kind 5 or 6, whose
    /// (possibly mutated) name fields would be interned.
    fn reaches_a_named_kind(bytes: &[u8]) -> bool {
        let mut at = MAGIC.len();
        let mut index = 0;
        while let Ok(payload) = frame_payload_loop(bytes, at, index) {
            if matches!(bytes.get(payload.start), Some(5 | 6)) {
                return true;
            }
            at = payload.end;
            index += 1;
        }
        false
    }

    #[derive(Clone, Debug)]
    enum Mutation {
        Truncate(f64),
        Flip(f64, u8),
        Insert(f64, u8),
    }

    fn arb_mutation() -> impl Strategy<Value = Mutation> {
        prop_oneof![
            (0.0f64..1.0).prop_map(Mutation::Truncate),
            (0.0f64..1.0, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
            (0.0f64..1.0, 0u8..=255).prop_map(|(at, byte)| Mutation::Insert(at, byte)),
        ]
    }

    fn apply(bytes: &mut Vec<u8>, mutation: &Mutation) {
        let body = bytes.len() - MAGIC.len();
        let pos = |at: f64| MAGIC.len() + ((at * body as f64) as usize).min(body);
        match *mutation {
            Mutation::Truncate(at) => bytes.truncate(pos(at)),
            Mutation::Flip(at, mask) => {
                let i = pos(at);
                if let Some(b) = bytes.get_mut(i) {
                    *b ^= mask;
                }
            }
            Mutation::Insert(at, byte) => bytes.insert(pos(at), byte),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Valid streams whose varints sit at every width boundary decode
        /// to themselves, and to what the per-byte loop decodes.
        #[test]
        fn fast_paths_decode_valid_streams_like_the_loop(events in arb_stream(ALL_KINDS)) {
            let bytes = write_stream(&events);
            let (fast, reference) = both(&bytes);
            prop_assert_eq!(&fast, &reference);
            prop_assert_eq!(fast, format!("{:?}", Ok::<_, String>(events)));
        }

        /// Truncated, flipped and padded streams decode to the same
        /// events or fail with the same diagnostic on both paths.
        #[test]
        fn fast_paths_match_the_loop_on_mutated_streams(
            events in arb_stream(NAMELESS_KINDS),
            mutations in proptest::collection::vec(arb_mutation(), 1..4),
        ) {
            let mut bytes = write_stream(&events);
            for m in &mutations {
                apply(&mut bytes, m);
            }
            prop_assume!(!reaches_a_named_kind(&bytes));
            let (fast, reference) = both(&bytes);
            prop_assert_eq!(fast, reference);
        }
    }
}
