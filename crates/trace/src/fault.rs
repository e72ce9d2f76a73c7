//! Byte-level fault injection for every on-disk format.
//!
//! Test support for the robustness suites: deterministic, seedable
//! generators of corrupted buffers — single-byte flips, truncations, and
//! splices. They prove that [`crate::io::read_trace`] never panics on
//! malformed input and that the v2 checksums catch payload corruption,
//! and that every [`crate::frame`] log honours the one torn-tail policy
//! written in that module. Lives in the library (rather than a test
//! file) so the harness and integration suites can share one mutation
//! engine.
//!
//! The generator is a self-contained SplitMix64 so mutations reproduce
//! exactly from a seed, independent of any external RNG crate.

/// One concrete corruption applied to a byte buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// XOR the byte at `offset` with `xor` (never zero, so the buffer
    /// always changes).
    Flip {
        /// Byte position mutated.
        offset: usize,
        /// Nonzero mask XORed into the byte.
        xor: u8,
    },
    /// Cut the buffer down to `len` bytes.
    Truncate {
        /// New (shorter) length.
        len: usize,
    },
    /// Overwrite the bytes at `offset` with a copy of the bytes at
    /// `source` (a plausible-looking internal corruption, e.g. a repeated
    /// sector).
    Splice {
        /// Destination of the copied run.
        offset: usize,
        /// Source of the copied run.
        source: usize,
        /// Run length in bytes.
        len: usize,
    },
}

impl Mutation {
    /// Applies the mutation to a copy of `buf` and returns it.
    pub fn apply(&self, buf: &[u8]) -> Vec<u8> {
        let mut out = buf.to_vec();
        match *self {
            Mutation::Flip { offset, xor } => {
                if let Some(b) = out.get_mut(offset) {
                    *b ^= xor;
                }
            }
            Mutation::Truncate { len } => out.truncate(len),
            Mutation::Splice {
                offset,
                source,
                len,
            } => {
                let run: Vec<u8> = out.iter().copied().skip(source).take(len).collect();
                for (i, b) in run.into_iter().enumerate() {
                    if let Some(dst) = out.get_mut(offset + i) {
                        *dst = b;
                    }
                }
            }
        }
        out
    }
}

/// Deterministic stream of [`Mutation`]s for a buffer of `len` bytes.
///
/// # Example
///
/// ```
/// use csp_trace::fault::{Mutation, MutationStream};
///
/// let buf = vec![0u8; 64];
/// let mutated: Vec<Vec<u8>> = MutationStream::new(buf.len(), 7)
///     .take(100)
///     .map(|m| m.apply(&buf))
///     .collect();
/// assert_eq!(mutated.len(), 100);
/// // Flips always change the buffer; splices may copy equal bytes.
/// for (m, out) in MutationStream::new(buf.len(), 7).take(100).zip(&mutated) {
///     if let Mutation::Flip { .. } = m {
///         assert_ne!(*out, buf);
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct MutationStream {
    len: usize,
    state: u64,
}

impl MutationStream {
    /// A stream of mutations for buffers of `len` bytes, seeded by `seed`.
    pub fn new(len: usize, seed: u64) -> Self {
        MutationStream {
            len,
            // Offset the seed so seed 0 does not start at raw state 0.
            state: seed ^ 0x6A09_E667_F3BC_C908,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Iterator for MutationStream {
    type Item = Mutation;

    fn next(&mut self) -> Option<Mutation> {
        if self.len == 0 {
            return None;
        }
        let r = self.next_u64();
        let kind = r % 4;
        let offset = (self.next_u64() % self.len as u64) as usize;
        Some(match kind {
            // Flips dominate: they are the subtlest corruption.
            0 | 1 => Mutation::Flip {
                offset,
                xor: ((r >> 8) as u8) | 1,
            },
            2 => Mutation::Truncate { len: offset },
            _ => {
                let source = (self.next_u64() % self.len as u64) as usize;
                let len = 1 + (self.next_u64() % 32) as usize;
                Mutation::Splice {
                    offset,
                    source,
                    len,
                }
            }
        })
    }
}

/// One adversarial behavior applied to a byte *stream* (a socket's write
/// half) rather than a whole buffer — the wire twin of [`Mutation`].
///
/// Offsets are absolute positions in the stream since the wrapper was
/// created, so a fault can be aimed at a specific frame field (e.g. the
/// length prefix of the first frame) regardless of how the writer chunks
/// its writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFault {
    /// Forward bytes unchanged (the healthy-control arm of a chaos run).
    Clean,
    /// XOR the byte at absolute stream `offset` with `xor` — the wire
    /// form of [`Mutation::Flip`]; a CRC-checked peer must reject the
    /// frame instead of acting on it.
    Flip {
        /// Absolute stream position mutated.
        offset: u64,
        /// Nonzero mask XORed into the byte.
        xor: u8,
    },
    /// Silently discard every byte from absolute stream `offset` on,
    /// while reporting success to the writer — the wire form of
    /// [`Mutation::Truncate`]: the peer sees a frame that stops mid-body
    /// and then silence.
    Truncate {
        /// Stream position after which nothing is forwarded.
        offset: u64,
    },
    /// Overwrite the first four stream bytes (a frame's length prefix)
    /// with `len` — claims a frame far larger than will ever arrive, so
    /// a peer without a frame-size ceiling would allocate unboundedly.
    OversizedLen {
        /// The hostile little-endian length to claim.
        len: u32,
    },
    /// Slowloris: forward at most one byte per write call, sleeping
    /// `delay_micros` before each — a peer without read deadlines wedges
    /// a thread on such a connection indefinitely.
    Slowloris {
        /// Microseconds slept before each forwarded byte.
        delay_micros: u64,
    },
}

/// A [`std::io::Write`] adapter that injects one [`WireFault`] into the
/// bytes flowing through it.
///
/// Wrap a socket's write half with this to drive the chaos harness: the
/// application code above it (frame encoder, client) is unchanged and
/// unaware, exactly like a hostile network or a buggy peer.
///
/// # Example
///
/// ```
/// use csp_trace::fault::{FaultyWriter, WireFault};
/// use std::io::Write;
///
/// let mut w = FaultyWriter::new(Vec::new(), WireFault::Flip { offset: 1, xor: 0x80 });
/// w.write_all(&[0, 0, 0]).unwrap();
/// assert_eq!(w.into_inner(), vec![0, 0x80, 0]);
/// ```
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    fault: WireFault,
    written: u64,
}

impl<W: std::io::Write> FaultyWriter<W> {
    /// Wraps `inner`, injecting `fault` at the configured stream offsets.
    pub fn new(inner: W, fault: WireFault) -> Self {
        FaultyWriter {
            inner,
            fault,
            written: 0,
        }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Total bytes the application has written (whether forwarded or
    /// swallowed by a truncation).
    pub fn stream_position(&self) -> u64 {
        self.written
    }
}

impl<W: std::io::Write> std::io::Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let start = self.written;
        match self.fault {
            WireFault::Clean => {
                let n = self.inner.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
            WireFault::Flip { offset, xor } => {
                let end = start + buf.len() as u64;
                let n = if (start..end).contains(&offset) {
                    let mut mutated = buf.to_vec();
                    mutated[(offset - start) as usize] ^= xor;
                    self.inner.write(&mutated)?
                } else {
                    self.inner.write(buf)?
                };
                self.written += n as u64;
                Ok(n)
            }
            WireFault::Truncate { offset } => {
                let keep = offset.saturating_sub(start).min(buf.len() as u64) as usize;
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                // Swallow the rest: the writer believes the bytes left.
                self.written += buf.len() as u64;
                Ok(buf.len())
            }
            WireFault::OversizedLen { len } => {
                let mut mutated = buf.to_vec();
                let hostile = len.to_le_bytes();
                for (pos, b) in mutated.iter_mut().enumerate() {
                    let abs = start + pos as u64;
                    if abs < 4 {
                        *b = hostile[abs as usize];
                    }
                }
                let n = self.inner.write(&mutated)?;
                self.written += n as u64;
                Ok(n)
            }
            WireFault::Slowloris { delay_micros } => {
                std::thread::sleep(std::time::Duration::from_micros(delay_micros));
                let n = self.inner.write(&buf[..1])?;
                self.written += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Every single-byte flip of `buf`, with the given XOR mask.
///
/// Exhaustive where [`MutationStream`] is sampled: used to prove that *no*
/// single-byte corruption of a v2 file goes undetected.
pub fn all_single_byte_flips(buf: &[u8], xor: u8) -> impl Iterator<Item = Mutation> + '_ {
    assert_ne!(xor, 0, "a zero mask is not a mutation");
    (0..buf.len()).map(move |offset| Mutation::Flip { offset, xor })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<Mutation> = MutationStream::new(100, 42).take(50).collect();
        let b: Vec<Mutation> = MutationStream::new(100, 42).take(50).collect();
        assert_eq!(a, b);
        let c: Vec<Mutation> = MutationStream::new(100, 43).take(50).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn flips_always_change_the_buffer() {
        let buf = vec![0xA5u8; 64];
        for m in MutationStream::new(buf.len(), 1).take(200) {
            if let Mutation::Flip { .. } = m {
                assert_ne!(m.apply(&buf), buf, "{m:?} was a no-op");
            }
        }
    }

    #[test]
    fn truncate_shortens() {
        let buf = vec![1u8; 32];
        let m = Mutation::Truncate { len: 10 };
        assert_eq!(m.apply(&buf).len(), 10);
    }

    #[test]
    fn splice_copies_runs() {
        let buf: Vec<u8> = (0..32).collect();
        let m = Mutation::Splice {
            offset: 0,
            source: 16,
            len: 4,
        };
        assert_eq!(&m.apply(&buf)[..4], &[16, 17, 18, 19]);
    }

    #[test]
    fn splice_past_end_is_safe() {
        let buf: Vec<u8> = (0..8).collect();
        let m = Mutation::Splice {
            offset: 6,
            source: 0,
            len: 100,
        };
        let out = m.apply(&buf);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[6..], &[0, 1]);
    }

    #[test]
    fn exhaustive_flips_cover_every_byte() {
        let buf = vec![0u8; 10];
        let flips: Vec<Mutation> = all_single_byte_flips(&buf, 0x80).collect();
        assert_eq!(flips.len(), 10);
    }

    #[test]
    fn empty_buffer_yields_no_mutations() {
        assert_eq!(MutationStream::new(0, 1).next(), None);
    }

    #[test]
    fn clean_wire_forwards_verbatim() {
        use std::io::Write;
        let mut w = FaultyWriter::new(Vec::new(), WireFault::Clean);
        w.write_all(&[1, 2, 3]).unwrap();
        w.write_all(&[4, 5]).unwrap();
        assert_eq!(w.stream_position(), 5);
        assert_eq!(w.into_inner(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn wire_flip_hits_absolute_offset_across_chunks() {
        use std::io::Write;
        let mut w = FaultyWriter::new(
            Vec::new(),
            WireFault::Flip {
                offset: 3,
                xor: 0xFF,
            },
        );
        // The target byte lands in the second chunk.
        w.write_all(&[0, 0]).unwrap();
        w.write_all(&[0, 0, 0]).unwrap();
        assert_eq!(w.into_inner(), vec![0, 0, 0, 0xFF, 0]);
    }

    #[test]
    fn wire_truncate_swallows_but_reports_success() {
        use std::io::Write;
        let mut w = FaultyWriter::new(Vec::new(), WireFault::Truncate { offset: 4 });
        w.write_all(&[1, 2, 3]).unwrap();
        w.write_all(&[4, 5, 6]).unwrap();
        w.write_all(&[7]).unwrap();
        // The writer believes all 7 bytes left; only 4 did.
        assert_eq!(w.stream_position(), 7);
        assert_eq!(w.into_inner(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn wire_oversized_len_rewrites_the_length_prefix() {
        use std::io::Write;
        let mut w = FaultyWriter::new(Vec::new(), WireFault::OversizedLen { len: u32::MAX });
        w.write_all(&[9, 9]).unwrap();
        w.write_all(&[9, 9, 9, 9]).unwrap();
        assert_eq!(w.into_inner(), vec![0xFF, 0xFF, 0xFF, 0xFF, 9, 9]);
    }

    #[test]
    fn wire_slowloris_dribbles_one_byte_per_call() {
        use std::io::Write;
        let mut w = FaultyWriter::new(Vec::new(), WireFault::Slowloris { delay_micros: 0 });
        assert_eq!(w.write(&[1, 2, 3]).unwrap(), 1);
        assert_eq!(w.write(&[2, 3]).unwrap(), 1);
        assert_eq!(w.into_inner(), vec![1, 2]);
    }
}
