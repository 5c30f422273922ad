//! Binary round-checkpoint codec shared by the federation runners.
//!
//! Every runner exposes `checkpoint_bytes()` / `restore_checkpoint()` built
//! on the little-endian [`Writer`]/[`Reader`] pair here, so a killed run can
//! resume mid-schedule and finish with *bit-identical* curves. The format
//! mirrors `pfrl-nn`'s model checkpoint (magic + version prefix, strict
//! length checks, `io::Error` on any malformed input) but additionally
//! fingerprints the federation configuration: restoring into a runner built
//! with a different seed, schedule, or client count is an error, not a
//! silent divergence.

use crate::fault::ClientFault;
use pfrl_nn::AdamState;
use pfrl_rl::{AgentSnapshot, Blend, BufferSnapshot};
use pfrl_tensor::Matrix;
use std::collections::VecDeque;
use std::io;

/// Magic + format version prefix of every federation checkpoint.
pub(crate) const MAGIC: &[u8; 13] = b"PFRL-FEDCKPT\x01";

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Little-endian byte sink for checkpoint encoding.
pub struct Writer {
    buf: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    pub fn new() -> Self {
        Self::with_magic(MAGIC)
    }

    /// A writer for a different container format sharing the same
    /// primitive encoding (e.g. the policy-snapshot codec).
    pub fn with_magic(magic: &[u8]) -> Self {
        Self { buf: magic.to_vec() }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn vec_f32(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }

    pub fn vec_f64(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    pub fn vec_usize(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }

    pub fn vec_bool(&mut self, v: &[bool]) {
        self.usize(v.len());
        for &x in v {
            self.bool(x);
        }
    }

    pub fn rng_state(&mut self, s: [u64; 4]) {
        for w in s {
            self.u64(w);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Strict little-endian reader for checkpoint decoding.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens a checkpoint, verifying the magic/version prefix.
    pub fn new(data: &'a [u8]) -> io::Result<Self> {
        Self::with_magic(data, MAGIC)
    }

    /// Opens a container with a caller-supplied magic/version prefix.
    pub fn with_magic(data: &'a [u8], magic: &[u8]) -> io::Result<Self> {
        if data.len() < magic.len() || &data[..magic.len()] != magic {
            return Err(bad("bad magic (wrong container format or version)"));
        }
        Ok(Self { data, pos: magic.len() })
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated checkpoint"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(bad(format!("invalid bool byte {v}"))),
        }
    }

    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> io::Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad(format!("length {v} exceeds usize")))
    }

    /// A length prefix additionally bounded by the bytes remaining, so a
    /// corrupted length fails fast instead of attempting a huge allocation.
    fn len_at_most(&mut self, elem_bytes: usize) -> io::Result<usize> {
        let n = self.usize()?;
        if n.saturating_mul(elem_bytes.max(1)) > self.data.len() - self.pos {
            return Err(bad(format!("declared length {n} exceeds checkpoint size")));
        }
        Ok(n)
    }

    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn vec_f32(&mut self) -> io::Result<Vec<f32>> {
        let n = self.len_at_most(4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    pub fn vec_f64(&mut self) -> io::Result<Vec<f64>> {
        let n = self.len_at_most(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    pub fn vec_usize(&mut self) -> io::Result<Vec<usize>> {
        let n = self.len_at_most(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    pub fn vec_bool(&mut self) -> io::Result<Vec<bool>> {
        let n = self.len_at_most(1)?;
        (0..n).map(|_| self.bool()).collect()
    }

    pub fn rng_state(&mut self) -> io::Result<[u64; 4]> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }

    pub fn str(&mut self) -> io::Result<String> {
        let n = self.len_at_most(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not valid UTF-8"))
    }

    /// Asserts the whole checkpoint was consumed.
    pub fn finish(self) -> io::Result<()> {
        if self.pos != self.data.len() {
            return Err(bad(format!("{} trailing bytes", self.data.len() - self.pos)));
        }
        Ok(())
    }
}

/// The construction-time facts a checkpoint must agree with before any
/// state is loaded into a runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    /// Runner discriminant (each runner module picks a distinct tag).
    pub algo: u8,
    /// Federation seed.
    pub seed: u64,
    /// Total episode budget.
    pub episodes: usize,
    /// Episodes between aggregations.
    pub comm_every: usize,
    /// Participants per round.
    pub participation_k: usize,
    /// Number of clients at checkpoint time.
    pub n_clients: usize,
}

impl Fingerprint {
    pub fn write(&self, w: &mut Writer) {
        w.u8(self.algo);
        w.u64(self.seed);
        w.usize(self.episodes);
        w.usize(self.comm_every);
        w.usize(self.participation_k);
        w.usize(self.n_clients);
    }

    /// Reads a fingerprint and verifies it matches `expected`.
    pub fn check(r: &mut Reader<'_>, expected: &Fingerprint) -> io::Result<()> {
        let got = Fingerprint {
            algo: r.u8()?,
            seed: r.u64()?,
            episodes: r.usize()?,
            comm_every: r.usize()?,
            participation_k: r.usize()?,
            n_clients: r.usize()?,
        };
        if &got != expected {
            return Err(bad(format!(
                "checkpoint is for a different federation: {got:?} vs {expected:?}"
            )));
        }
        Ok(())
    }
}

pub(crate) fn write_adam(w: &mut Writer, s: &AdamState) {
    w.vec_f32(&s.m);
    w.vec_f32(&s.v);
    w.u64(s.t);
}

pub(crate) fn read_adam(r: &mut Reader<'_>) -> io::Result<AdamState> {
    Ok(AdamState { m: r.vec_f32()?, v: r.vec_f32()?, t: r.u64()? })
}

pub(crate) fn write_buffer(w: &mut Writer, b: &BufferSnapshot) {
    w.usize(b.state_dim);
    w.usize(b.mask_dim);
    w.vec_f32(&b.states);
    w.vec_usize(&b.actions);
    w.vec_f32(&b.rewards);
    w.vec_f32(&b.old_log_probs);
    w.vec_bool(&b.terminals);
    w.vec_bool(&b.masks);
}

pub(crate) fn read_buffer(r: &mut Reader<'_>) -> io::Result<BufferSnapshot> {
    Ok(BufferSnapshot {
        state_dim: r.usize()?,
        mask_dim: r.usize()?,
        states: r.vec_f32()?,
        actions: r.vec_usize()?,
        rewards: r.vec_f32()?,
        old_log_probs: r.vec_f32()?,
        terminals: r.vec_bool()?,
        masks: r.vec_bool()?,
    })
}

/// Encodes an agent: actor, critics, actor and critic optimizers, the α
/// state (two critics only), RNG, batch and episode cursor.
pub(crate) fn write_agent(w: &mut Writer, s: &AgentSnapshot) {
    w.vec_f32(&s.actor);
    s.critics.iter().for_each(|c| w.vec_f32(c));
    write_adam(w, &s.actor_opt);
    s.critic_opts.iter().for_each(|o| write_adam(w, o));
    if let Some(blend) = s.blend {
        w.f32(blend.alpha);
        match blend.fixed {
            Some(a) => {
                w.bool(true);
                w.f32(a);
            }
            None => w.bool(false),
        }
    }
    w.rng_state(s.rng);
    write_buffer(w, &s.buffer);
    w.usize(s.episodes_buffered);
}

/// Decodes an agent written by [`write_agent`] with `critics` critics —
/// the count of the agent it restores into.
pub(crate) fn read_agent(r: &mut Reader<'_>, critics: usize) -> io::Result<AgentSnapshot> {
    Ok(AgentSnapshot {
        actor: r.vec_f32()?,
        critics: (0..critics).map(|_| r.vec_f32()).collect::<io::Result<_>>()?,
        actor_opt: read_adam(r)?,
        critic_opts: (0..critics).map(|_| read_adam(r)).collect::<io::Result<_>>()?,
        blend: match critics {
            2 => Some(Blend {
                alpha: r.f32()?,
                fixed: if r.bool()? { Some(r.f32()?) } else { None },
            }),
            _ => None,
        },
        rng: r.rng_state()?,
        buffer: read_buffer(r)?,
        episodes_buffered: r.usize()?,
    })
}

fn write_streams(w: &mut Writer, streams: &[Vec<f32>]) {
    w.usize(streams.len());
    for s in streams {
        w.vec_f32(s);
    }
}

fn read_streams(r: &mut Reader<'_>) -> io::Result<Vec<Vec<f32>>> {
    let n = r.usize()?;
    (0..n).map(|_| r.vec_f32()).collect()
}

pub(crate) fn write_client_fault(w: &mut Writer, c: &ClientFault) {
    w.usize(c.straggle_left);
    w.usize(c.missed_rounds);
    w.u32(c.rejections);
    w.bool(c.evicted);
    match &c.last_good {
        Some(streams) => {
            w.bool(true);
            write_streams(w, streams);
        }
        None => w.bool(false),
    }
    w.usize(c.history.len());
    for streams in &c.history {
        write_streams(w, streams);
    }
}

pub(crate) fn read_client_fault(r: &mut Reader<'_>) -> io::Result<ClientFault> {
    let straggle_left = r.usize()?;
    let missed_rounds = r.usize()?;
    let rejections = r.u32()?;
    let evicted = r.bool()?;
    let last_good = if r.bool()? { Some(read_streams(r)?) } else { None };
    let n = r.usize()?;
    let mut history = VecDeque::with_capacity(n.min(64));
    for _ in 0..n {
        history.push_back(read_streams(r)?);
    }
    Ok(ClientFault { straggle_left, missed_rounds, rejections, evicted, last_good, history })
}

pub(crate) fn write_matrix(w: &mut Writer, m: &Matrix) {
    let (rows, cols) = m.shape();
    w.usize(rows);
    w.usize(cols);
    w.vec_f32(m.as_slice());
}

pub(crate) fn read_matrix(r: &mut Reader<'_>) -> io::Result<Matrix> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let data = r.vec_f32()?;
    if data.len() != rows * cols {
        return Err(bad(format!("matrix {rows}x{cols} with {} elements", data.len())));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(123_456);
        w.u64(u64::MAX - 1);
        w.f32(-0.25);
        w.f64(1e300);
        w.vec_f32(&[1.0, 2.5]);
        w.vec_f64(&[-3.0]);
        w.vec_usize(&[0, 9, 4]);
        w.vec_bool(&[true, false]);
        w.rng_state([1, 2, 3, 4]);
        w.str("héllo");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -0.25);
        assert_eq!(r.f64().unwrap(), 1e300);
        assert_eq!(r.vec_f32().unwrap(), vec![1.0, 2.5]);
        assert_eq!(r.vec_f64().unwrap(), vec![-3.0]);
        assert_eq!(r.vec_usize().unwrap(), vec![0, 9, 4]);
        assert_eq!(r.vec_bool().unwrap(), vec![true, false]);
        assert_eq!(r.rng_state().unwrap(), [1, 2, 3, 4]);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_truncation_and_trailing_bytes_rejected() {
        assert!(Reader::new(b"nope").is_err());
        let mut w = Writer::new();
        w.u64(5);
        let mut bytes = w.finish();
        assert!(Reader::new(&bytes[..bytes.len() - 1]).unwrap().u64().is_err());
        bytes.push(0);
        let mut r = Reader::new(&bytes).unwrap();
        let _ = r.u64().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn oversized_declared_length_fails_fast() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 8); // an absurd vec_f64 length prefix
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert!(r.vec_f64().is_err());
    }

    #[test]
    fn fingerprint_mismatch_is_invalid_data() {
        let fp = Fingerprint {
            algo: 3,
            seed: 9,
            episodes: 10,
            comm_every: 2,
            participation_k: 2,
            n_clients: 4,
        };
        let mut w = Writer::new();
        fp.write(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        Fingerprint::check(&mut r, &fp).unwrap();
        let other = Fingerprint { seed: 10, ..fp };
        let mut r = Reader::new(&bytes).unwrap();
        let err = Fingerprint::check(&mut r, &other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn client_fault_roundtrips() {
        let mut c = ClientFault {
            straggle_left: 2,
            missed_rounds: 1,
            rejections: 3,
            evicted: false,
            last_good: Some(vec![vec![1.0, -2.0], vec![0.5]]),
            history: VecDeque::new(),
        };
        c.history.push_back(vec![vec![9.0]]);
        let mut w = Writer::new();
        write_client_fault(&mut w, &c);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert_eq!(read_client_fault(&mut r).unwrap(), c);
        r.finish().unwrap();
    }

    #[test]
    fn matrix_roundtrips() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut w = Writer::new();
        write_matrix(&mut w, &m);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        let back = read_matrix(&mut r).unwrap();
        assert_eq!(back.shape(), (2, 3));
        assert_eq!(back.as_slice(), m.as_slice());
    }
}
