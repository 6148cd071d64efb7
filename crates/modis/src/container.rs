//! The `EOGR` granule container — this repository's stand-in for HDF4.
//!
//! Real MODIS granules are HDF4 files; implementing HDF4 would add nothing
//! to the experiments, so granules are serialized in a small self-describing
//! container that preserves what matters to the pipeline: named,
//! multi-dimensional, typed datasets with attributes and end-to-end
//! integrity checking (per-dataset CRC-32, which the download stage uses to
//! detect corrupted transfers).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "EOGR"            4 bytes
//! version u16               currently 1
//! n_attrs u16
//!   per attr: klen u16, key utf-8, vlen u32, value utf-8
//! n_datasets u16
//!   per dataset:
//!     nlen u16, name utf-8
//!     dtype u8 (0 = f32, 1 = u8, 2 = i32)
//!     ndims u8, dims u32 × ndims
//!     crc32 u32 (of the raw data bytes)
//!     data  (elem_size × Π dims bytes)
//! ```

use eoml_util::bytes::{self, le_bytes};
use eoml_util::hash::crc32_chain;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};

/// Container format magic bytes.
pub const MAGIC: &[u8; 4] = b"EOGR";

/// Container format version.
pub const VERSION: u16 = 1;

/// Payload bytes handed to the sink, or read from the stream and checksummed,
/// at a time: small enough to stay in cache between the read and the CRC.
const PIECE_BYTES: usize = 32 * 1024;

/// Errors produced when decoding a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Buffer too short or a length field overruns it.
    Truncated,
    /// Magic bytes are not `EOGR`.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Attribute or dataset name is not valid UTF-8.
    BadUtf8,
    /// Unknown dtype tag.
    BadDtype(u8),
    /// A dataset's CRC-32 does not match its payload.
    ChecksumMismatch {
        /// Dataset whose checksum failed.
        dataset: String,
    },
    /// A dataset's declared shape implies a size that overflows.
    ShapeOverflow,
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Truncated => write!(f, "container truncated"),
            ContainerError::BadMagic => write!(f, "bad magic (not an EOGR container)"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            ContainerError::BadDtype(d) => write!(f, "unknown dtype tag {d}"),
            ContainerError::ChecksumMismatch { dataset } => {
                write!(f, "checksum mismatch in dataset {dataset:?}")
            }
            ContainerError::ShapeOverflow => write!(f, "dataset shape overflows"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Errors from decoding a container out of a byte stream.
#[derive(Debug)]
pub enum ReadError {
    /// The stream itself failed.
    Io(io::Error),
    /// The bytes are not a valid container.
    Format(ContainerError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Format(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<ContainerError> for ReadError {
    fn from(e: ContainerError) -> Self {
        ReadError::Format(e)
    }
}

/// Typed dataset payload.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// Unsigned bytes (masks, flags).
    U8(Vec<u8>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
}

impl DatasetData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            DatasetData::F32(v) => v.len(),
            DatasetData::U8(v) => v.len(),
            DatasetData::I32(v) => v.len(),
        }
    }

    /// Whether the payload has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn dtype_tag(&self) -> u8 {
        match self {
            DatasetData::F32(_) => 0,
            DatasetData::U8(_) => 1,
            DatasetData::I32(_) => 2,
        }
    }

    fn elem_size(tag: u8) -> Option<usize> {
        match tag {
            0 => Some(4),
            1 => Some(1),
            2 => Some(4),
            _ => None,
        }
    }

    /// Payload size in bytes once serialized.
    fn byte_len(&self) -> usize {
        match self {
            DatasetData::U8(v) => v.len(),
            DatasetData::F32(_) | DatasetData::I32(_) => self.len() * 4,
        }
    }

    /// The payload as serialized: the vector's own bytes on a
    /// little-endian host.
    fn le_bytes(&self) -> Cow<'_, [u8]> {
        match self {
            DatasetData::U8(v) => Cow::Borrowed(v),
            DatasetData::F32(v) => le_bytes(v),
            DatasetData::I32(v) => le_bytes(v),
        }
    }

    /// A zero payload of type `tag` and `count` elements.
    fn zeroed(tag: u8, count: usize) -> Result<Self, ContainerError> {
        match tag {
            0 => Ok(DatasetData::F32(vec![0.0; count])),
            1 => Ok(DatasetData::U8(vec![0; count])),
            2 => Ok(DatasetData::I32(vec![0; count])),
            other => Err(ContainerError::BadDtype(other)),
        }
    }

    /// Overwrite the payload with the little-endian bytes `fill` writes
    /// into its own memory ([`bytes::fill_le`]).
    fn fill_le<E>(&mut self, fill: impl FnOnce(&mut [u8]) -> Result<(), E>) -> Result<(), E> {
        match self {
            DatasetData::U8(v) => fill(v),
            DatasetData::F32(v) => bytes::fill_le(v, fill),
            DatasetData::I32(v) => bytes::fill_le(v, fill),
        }
    }

    /// Borrow as `&[f32]`, if that is the payload type.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            DatasetData::F32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i32]`, if that is the payload type.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            DatasetData::I32(v) => Some(v),
            _ => None,
        }
    }
}

/// A named, shaped dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name (e.g. `"radiance_b06"`).
    pub name: String,
    /// Dimension sizes, outermost first.
    pub dims: Vec<u32>,
    /// Payload; element count must equal the product of `dims`.
    pub data: DatasetData,
}

impl Dataset {
    /// Construct, asserting shape/payload agreement.
    pub fn new(name: impl Into<String>, dims: Vec<u32>, data: DatasetData) -> Self {
        let expect: usize = dims.iter().map(|&d| d as usize).product();
        assert_eq!(
            expect,
            data.len(),
            "dataset shape {dims:?} does not match payload length {}",
            data.len()
        );
        Self {
            name: name.into(),
            dims,
            data,
        }
    }
}

/// An in-memory granule container: string attributes plus datasets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Container {
    /// Global attributes (sorted map for deterministic serialization).
    pub attrs: BTreeMap<String, String>,
    /// Datasets in insertion order.
    pub datasets: Vec<Dataset>,
}

impl Container {
    /// Empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// Append a dataset (builder style).
    pub fn with_dataset(mut self, ds: Dataset) -> Self {
        self.datasets.push(ds);
        self
    }

    /// Look up a dataset by name.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Serialize to bytes: one allocation of the encoded size.
    pub fn encode(&self) -> Vec<u8> {
        let attr_bytes: usize = self.attrs.iter().map(|(k, v)| 6 + k.len() + v.len()).sum();
        let dataset_bytes: usize = self
            .datasets
            .iter()
            .map(|ds| 8 + ds.name.len() + 4 * ds.dims.len() + ds.data.byte_len())
            .sum();
        let mut out = Vec::with_capacity(10 + attr_bytes + dataset_bytes);
        self.encode_into(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Serialize straight into `sink` (a file, typically) — the bytes
    /// [`encode`](Self::encode) returns, one dataset at a time, so no more
    /// than the largest dataset is ever staged.
    pub fn encode_into(&self, sink: &mut impl Write) -> io::Result<()> {
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&(self.attrs.len() as u16).to_le_bytes());
        for (k, v) in &self.attrs {
            head.extend_from_slice(&(k.len() as u16).to_le_bytes());
            head.extend_from_slice(k.as_bytes());
            head.extend_from_slice(&(v.len() as u32).to_le_bytes());
            head.extend_from_slice(v.as_bytes());
        }
        head.extend_from_slice(&(self.datasets.len() as u16).to_le_bytes());
        for ds in &self.datasets {
            head.extend_from_slice(&(ds.name.len() as u16).to_le_bytes());
            head.extend_from_slice(ds.name.as_bytes());
            head.push(ds.data.dtype_tag());
            head.push(ds.dims.len() as u8);
            for &d in &ds.dims {
                head.extend_from_slice(&d.to_le_bytes());
            }
            // The CRC goes in front of the payload: checksum the payload
            // where it lies, then hand it to the sink a piece at a time.
            let payload = ds.data.le_bytes();
            head.extend_from_slice(&crc32_chain(0, &payload).to_le_bytes());
            sink.write_all(&head)?;
            head.clear();
            for piece in payload.chunks(PIECE_BYTES) {
                sink.write_all(piece)?;
            }
        }
        sink.write_all(&head)
    }

    /// Deserialize and validate checksums.
    pub fn decode(buf: &[u8]) -> Result<Self, ContainerError> {
        match Self::decode_from(buf, buf.len() as u64) {
            Ok(container) => Ok(container),
            Err(ReadError::Format(e)) => Err(e),
            // A slice yields every byte of the length it was announced with.
            Err(ReadError::Io(_)) => Err(ContainerError::Truncated),
        }
    }

    /// Deserialize from a stream of `len` bytes (a file and its size,
    /// typically), validating checksums, one dataset at a time: the encoded
    /// container is never held whole. `len` bounds every length field, so a
    /// forged one is [`ContainerError::Truncated`], not a reservation.
    pub fn decode_from(reader: impl Read, len: u64) -> Result<Self, ReadError> {
        let mut container = Container::new();
        container.decode_into(reader, len)?;
        Ok(container)
    }

    /// [`decode_from`](Self::decode_from) into this container, whose
    /// datasets are the shells the stream's are read into: the `i`-th
    /// dataset keeps the `i`-th shell's payload vector when the name, dtype
    /// and element count all match, and gets a fresh one otherwise. Every
    /// check `decode_from` makes is made, in the same order and with the
    /// same error: the length checks before any payload is sized or
    /// overwritten, the CRC over the bytes where they land. A caller that
    /// decodes granule after granule into one container allocates its
    /// payloads once.
    ///
    /// On error the container holds what was read so far and the shells not
    /// reached; no shell is shrunk or dropped before its replacement is
    /// known to fit.
    pub fn decode_into(&mut self, reader: impl Read, len: u64) -> Result<(), ReadError> {
        let mut src = Source {
            reader,
            remaining: len,
            buf: Vec::new(),
        };
        if src.take(4)? != MAGIC {
            return Err(ContainerError::BadMagic.into());
        }
        let version = src.u16()?;
        if version != VERSION {
            return Err(ContainerError::BadVersion(version).into());
        }
        let n_attrs = src.u16()?;
        self.attrs.clear();
        for _ in 0..n_attrs {
            let klen = src.u16()? as usize;
            let key = src.string(klen)?;
            let vlen = src.u32()? as usize;
            let value = src.string(vlen)?;
            self.attrs.insert(key, value);
        }
        let n_datasets = src.u16()? as usize;
        // A dataset header is at least nlen + dtype + ndims + crc = 8 bytes;
        // a count the remaining bytes cannot hold is a truncated file, and
        // nothing is reserved for it.
        if n_datasets as u64 > src.remaining / 8 {
            return Err(ContainerError::Truncated.into());
        }
        for i in 0..n_datasets {
            let nlen = src.u16()? as usize;
            let name = std::str::from_utf8(src.take(nlen)?).map_err(|_| ContainerError::BadUtf8)?;
            // The shell at this position keeps its name if it has this one.
            let named = self.datasets.get(i).is_some_and(|shell| shell.name == name);
            let name = (!named).then(|| name.to_string());
            let dtype = src.u8()?;
            let elem = DatasetData::elem_size(dtype).ok_or(ContainerError::BadDtype(dtype))?;
            let ndims = src.u8()? as u64;
            if ndims > src.remaining / 4 {
                return Err(ContainerError::Truncated.into());
            }
            let mut dims = [0u32; u8::MAX as usize];
            let dims = &mut dims[..ndims as usize];
            let mut count: usize = 1;
            for d in dims.iter_mut() {
                *d = src.u32()?;
                count = count
                    .checked_mul(*d as usize)
                    .ok_or(ContainerError::ShapeOverflow)?;
            }
            let expected_crc = src.u32()?;
            let nbytes = count
                .checked_mul(elem)
                .ok_or(ContainerError::ShapeOverflow)?;
            if nbytes as u64 > src.remaining {
                return Err(ContainerError::Truncated.into());
            }
            // The payload fits what is left: keep the shell's vector if it
            // is this dataset's, or put a fresh one in its place.
            let fits = |data: &DatasetData| data.dtype_tag() == dtype && data.len() == count;
            if !(named && fits(&self.datasets[i].data)) {
                let data = DatasetData::zeroed(dtype, count)?;
                match self.datasets.get_mut(i) {
                    Some(shell) => shell.data = data,
                    None => self.datasets.push(Dataset {
                        name: String::new(),
                        dims: Vec::new(),
                        data,
                    }),
                }
            }
            if let Some(name) = name {
                self.datasets[i].name = name;
            }
            let ds = &mut self.datasets[i];
            ds.dims.clear();
            ds.dims.extend_from_slice(dims);
            // Read into the payload's own bytes and checksummed there, a
            // cache-sized piece at a time.
            let mut crc = 0;
            ds.data.fill_le(|raw| {
                for piece in raw.chunks_mut(PIECE_BYTES) {
                    src.fill(piece)?;
                    crc = crc32_chain(crc, piece);
                }
                Ok::<_, ReadError>(())
            })?;
            if crc != expected_crc {
                let dataset = ds.name.clone();
                return Err(ContainerError::ChecksumMismatch { dataset }.into());
            }
        }
        self.datasets.truncate(n_datasets);
        Ok(())
    }
}

/// A byte stream of known length, read a field at a time.
struct Source<R> {
    reader: R,
    /// Bytes the stream has yet to yield.
    remaining: u64,
    /// The field last taken (reused from field to field).
    buf: Vec<u8>,
}

impl<R: Read> Source<R> {
    /// The next `n` bytes; [`ContainerError::Truncated`] (and nothing
    /// reserved) when the stream does not hold that many.
    fn take(&mut self, n: usize) -> Result<&[u8], ReadError> {
        if n as u64 > self.remaining {
            return Err(ContainerError::Truncated.into());
        }
        self.buf.resize(n, 0);
        self.reader.read_exact(&mut self.buf)?;
        self.remaining -= n as u64;
        Ok(&self.buf)
    }

    /// Fill `dst` with the next `dst.len()` bytes, like [`take`](Self::take).
    fn fill(&mut self, dst: &mut [u8]) -> Result<(), ReadError> {
        if dst.len() as u64 > self.remaining {
            return Err(ContainerError::Truncated.into());
        }
        self.reader.read_exact(dst)?;
        self.remaining -= dst.len() as u64;
        Ok(())
    }

    fn string(&mut self, n: usize) -> Result<String, ReadError> {
        let s = std::str::from_utf8(self.take(n)?).map_err(|_| ContainerError::BadUtf8)?;
        Ok(s.to_string())
    }

    fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ReadError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ReadError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) — [`eoml_util::hash::crc32`].
pub fn crc32(data: &[u8]) -> u32 {
    eoml_util::hash::crc32(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Container {
        Container::new()
            .with_attr("platform", "Terra")
            .with_attr("granule", "MOD.A2022001.0005")
            .with_dataset(Dataset::new(
                "radiance_b06",
                vec![2, 3],
                DatasetData::F32(vec![1.0, 2.5, -3.0, 0.0, 1e-9, 42.0]),
            ))
            .with_dataset(Dataset::new(
                "cloud_mask",
                vec![2, 3],
                DatasetData::U8(vec![0, 1, 1, 0, 0, 1]),
            ))
            .with_dataset(Dataset::new(
                "counts",
                vec![3],
                DatasetData::I32(vec![-1, 0, 7]),
            ))
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" → 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample();
        let bytes = c.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "encode pre-sizes exactly");
        let back = Container::decode(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn streamed_codec_equals_the_in_memory_one() {
        struct Pieces(Vec<u8>, usize);
        impl Write for Pieces {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Payloads of several pieces with a ragged last one, and tiny ones.
        let n = PIECE_BYTES / 2 + 3;
        let c = sample()
            .with_dataset(Dataset::new(
                "plane",
                vec![n as u32],
                DatasetData::F32((0..n).map(|i| i as f32 * 0.25 - 7.0).collect()),
            ))
            .with_dataset(Dataset::new(
                "mask",
                vec![3, n as u32],
                DatasetData::U8((0..3 * n).map(|i| (i * 7) as u8).collect()),
            ));
        let bytes = c.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "encode pre-sizes exactly");
        let mut sink = Pieces(Vec::new(), 0);
        c.encode_into(&mut sink).unwrap();
        assert_eq!(sink.0, bytes);
        assert!(sink.1 > 2 * c.datasets.len(), "streamed in pieces");
        // The checksum in front of a chunked payload is that of the whole.
        let at = bytes.windows(5).position(|w| w == b"plane").unwrap() + 5 + 2 + 4;
        let crc = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert_eq!(crc, crc32(&bytes[at + 4..at + 4 + 4 * n]));

        let len = bytes.len() as u64;
        assert_eq!(Container::decode_from(&bytes[..], len).unwrap(), c);
        // A length field that overruns the announced length is a format
        // error; a stream that ends before its announced length is an I/O one.
        let short = Container::decode_from(&bytes[..], len - 1);
        assert!(matches!(
            short,
            Err(ReadError::Format(ContainerError::Truncated))
        ));
        let cut = Container::decode_from(&bytes[..bytes.len() - 1], len);
        assert!(matches!(cut, Err(ReadError::Io(_))));
        assert_eq!(
            Container::decode(&bytes[..bytes.len() - 1]),
            Err(ContainerError::Truncated)
        );
    }

    #[test]
    fn forged_counts_are_truncation_not_reservations() {
        // n_datasets = u16::MAX on a container with no dataset bytes.
        let mut bytes = Container::new().encode();
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(Container::decode(&bytes), Err(ContainerError::Truncated));
        // ndims = 255 on a dataset whose bytes end right after it.
        let mut bytes = Container::new().encode();
        bytes[n - 2..].copy_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&[1, 0, b'x', 0, 255, 0, 0, 0, 0, 0]);
        assert_eq!(Container::decode(&bytes), Err(ContainerError::Truncated));
        // A shape whose byte size is near usize::MAX must not wrap the cursor.
        let mut bytes = Container::new().encode();
        bytes[n - 2..].copy_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&[1, 0, b'x', 1, 2]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 12]);
        assert_eq!(Container::decode(&bytes), Err(ContainerError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Container::decode(&bytes), Err(ContainerError::BadMagic));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert_eq!(
            Container::decode(&bytes),
            Err(ContainerError::BadVersion(99))
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample().encode();
        for cut in [0, 3, 5, 10, bytes.len() - 1] {
            let res = Container::decode(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_detects_payload_corruption() {
        let c = sample();
        let bytes = c.encode();
        // Flip a byte inside the f32 payload (near the end of the first
        // dataset region). Find the radiance data by scanning for the name.
        let name_pos = bytes
            .windows(12)
            .position(|w| w == b"radiance_b06")
            .unwrap();
        // name + dtype(1) + ndims(1) + dims(8) + crc(4) then data
        let data_pos = name_pos + 12 + 1 + 1 + 8 + 4;
        let mut corrupted = bytes.clone();
        corrupted[data_pos] ^= 0xFF;
        match Container::decode(&corrupted) {
            Err(ContainerError::ChecksumMismatch { dataset }) => {
                assert_eq!(dataset, "radiance_b06");
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    /// One two-dimensional dataset of each dtype, each over 64 KiB with a
    /// ragged last piece, so the carry-less CRC path checks every payload.
    fn large() -> Container {
        let n: usize = 64 * 1024 / 4 + 13;
        Container::new()
            .with_attr("granule", "MOD.A2022001.0005")
            .with_dataset(Dataset::new(
                "radiance",
                vec![1, n as u32],
                DatasetData::F32((0..n).map(|i| (i as f32).sin() * 1e3).collect()),
            ))
            .with_dataset(Dataset::new(
                "mask",
                vec![4, n as u32],
                DatasetData::U8((0..4 * n).map(|i| (i * 31 % 251) as u8).collect()),
            ))
            .with_dataset(Dataset::new(
                "counts",
                vec![n as u32, 1],
                DatasetData::I32((0..n as i32).map(|i| i.wrapping_mul(-7919)).collect()),
            ))
    }

    /// Each dataset's name, the offset of its dims in `bytes` and the byte
    /// range of its payload, found by walking the encoded headers.
    fn layout(c: &Container, bytes: &[u8]) -> Vec<(String, usize, std::ops::Range<usize>)> {
        let mut at = 4 + 2 + 2;
        at += c
            .attrs
            .iter()
            .map(|(k, v)| 6 + k.len() + v.len())
            .sum::<usize>();
        at += 2;
        let mut out = Vec::new();
        for ds in &c.datasets {
            at += 2 + ds.name.len() + 2;
            let dims_at = at;
            at += 4 * ds.dims.len() + 4;
            let n = ds.data.le_bytes().len();
            assert_eq!(&bytes[at..at + n], &*ds.data.le_bytes());
            out.push((ds.name.clone(), dims_at, at..at + n));
            at += n;
        }
        assert_eq!(at, bytes.len());
        out
    }

    #[test]
    fn fast_path_catches_a_single_flipped_bit_anywhere_in_a_payload() {
        let c = large();
        let bytes = c.encode();
        assert_eq!(Container::decode(&bytes).unwrap(), c);
        for (name, _, range) in layout(&c, &bytes) {
            let n = range.len();
            let mut offsets = vec![0, 1, 15, 16, 63, 64, 127, 128, n - 16, n - 15, n - 1];
            offsets.extend([PIECE_BYTES - 1, PIECE_BYTES, PIECE_BYTES + 1]);
            offsets.extend((0..40).map(|k| k * 7919 % n));
            for (k, off) in offsets.into_iter().enumerate() {
                let mut corrupted = bytes.clone();
                corrupted[range.start + off] ^= 1 << (k % 8);
                assert_eq!(
                    Container::decode(&corrupted),
                    Err(ContainerError::ChecksumMismatch {
                        dataset: name.clone()
                    }),
                    "{name}: bit {} of byte {off}",
                    k % 8
                );
            }
        }
    }

    #[test]
    fn fast_path_stream_ending_mid_payload_is_an_io_error() {
        let c = large();
        let bytes = c.encode();
        let len = bytes.len() as u64;
        for (name, _, range) in layout(&c, &bytes) {
            for cut in [1, 127, PIECE_BYTES, range.len() / 2, range.len() - 1] {
                let end = range.start + cut;
                let read = Container::decode_from(&bytes[..end], len);
                assert!(matches!(read, Err(ReadError::Io(_))), "{name} cut at {cut}");
                assert_eq!(
                    Container::decode(&bytes[..end]),
                    Err(ContainerError::Truncated),
                    "{name} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn fast_path_forged_dims_product_is_truncation_before_any_allocation() {
        let c = large();
        let bytes = c.encode();
        for (name, dims_at, _) in layout(&c, &bytes) {
            // 2^31 × 2^29 elements: 2^62 bytes (2^60 for the u8 mask). Had
            // the payload been sized before the length check, that
            // allocation would have aborted the test.
            let mut forged = bytes.clone();
            forged[dims_at..dims_at + 4].copy_from_slice(&(1u32 << 31).to_le_bytes());
            forged[dims_at + 4..dims_at + 8].copy_from_slice(&(1u32 << 29).to_le_bytes());
            assert_eq!(
                Container::decode(&forged),
                Err(ContainerError::Truncated),
                "{name}"
            );
        }
    }

    /// [`large`]'s datasets holding other values: the shells a decode of
    /// [`large`] may reuse.
    fn shells() -> Container {
        let mut c = large();
        for ds in &mut c.datasets {
            match &mut ds.data {
                DatasetData::F32(v) => v.iter_mut().for_each(|x| *x = -*x - 1.0),
                DatasetData::U8(v) => v.iter_mut().for_each(|x| *x = !*x),
                DatasetData::I32(v) => v.iter_mut().for_each(|x| *x ^= 0x5a5a),
            }
        }
        c
    }

    /// Where each dataset's payload lives and how much it may hold.
    fn payloads(c: &Container) -> Vec<(usize, usize)> {
        let at = |ds: &Dataset| match &ds.data {
            DatasetData::F32(v) => (v.as_ptr() as usize, v.capacity()),
            DatasetData::U8(v) => (v.as_ptr() as usize, v.capacity()),
            DatasetData::I32(v) => (v.as_ptr() as usize, v.capacity()),
        };
        c.datasets.iter().map(at).collect()
    }

    #[test]
    fn decoding_into_matching_shells_reuses_every_payload() {
        let c = large();
        let bytes = c.encode();
        let mut into = shells();
        assert_ne!(into, c);
        let held = payloads(&into);
        into.decode_into(&bytes[..], bytes.len() as u64).unwrap();
        assert_eq!(into, c);
        assert_eq!(payloads(&into), held, "a matching shell was reallocated");
        // More shells than datasets: the extra ones go; fewer: fresh ones.
        let mut extra = shells().with_dataset(Dataset::new("x", vec![1], DatasetData::U8(vec![7])));
        extra.decode_into(&bytes[..], bytes.len() as u64).unwrap();
        assert_eq!(extra, c);
        let mut fewer = shells();
        fewer.datasets.truncate(1);
        fewer.decode_into(&bytes[..], bytes.len() as u64).unwrap();
        assert_eq!(fewer, c);
    }

    #[test]
    fn a_shell_of_another_name_dtype_or_length_gets_a_fresh_payload() {
        let c = large();
        let bytes = c.encode();
        type Spoil = fn(&mut Dataset);
        let spoils: [(&str, Spoil); 3] = [
            ("name", |ds| ds.name.push('!')),
            ("dtype", |ds| {
                ds.data = match &ds.data {
                    DatasetData::F32(v) => DatasetData::I32(vec![0; v.len()]),
                    other => DatasetData::F32(vec![0.0; other.len()]),
                }
            }),
            ("length", |ds| {
                ds.data = match &ds.data {
                    DatasetData::F32(v) => DatasetData::F32(vec![0.0; v.len() - 1]),
                    DatasetData::U8(v) => DatasetData::U8(vec![0; v.len() + 1]),
                    DatasetData::I32(v) => DatasetData::I32(vec![0; v.len() / 2]),
                }
            }),
        ];
        for k in 0..c.datasets.len() {
            for (what, spoil) in spoils {
                let mut into = shells();
                spoil(&mut into.datasets[k]);
                let held = payloads(&into);
                into.decode_into(&bytes[..], bytes.len() as u64).unwrap();
                assert_eq!(into, c, "{what} of dataset {k}");
                for (j, (now, before)) in payloads(&into).iter().zip(&held).enumerate() {
                    assert_eq!(now == before, j != k, "{what} of dataset {k}: payload {j}");
                }
            }
        }
    }

    #[test]
    fn hostile_input_into_shells_fails_as_decode_from_does() {
        let c = large();
        let bytes = c.encode();
        let len = bytes.len() as u64;
        for (name, dims_at, range) in layout(&c, &bytes) {
            // 2^62 bytes declared: refused before any shell is resized.
            let mut forged = bytes.clone();
            forged[dims_at..dims_at + 4].copy_from_slice(&(1u32 << 31).to_le_bytes());
            forged[dims_at + 4..dims_at + 8].copy_from_slice(&(1u32 << 29).to_le_bytes());
            let mut into = shells();
            let held = payloads(&into);
            let read = into.decode_into(&forged[..], len);
            assert!(
                matches!(read, Err(ReadError::Format(ContainerError::Truncated))),
                "{name}: {read:?}"
            );
            assert_eq!(payloads(&into), held, "{name}: a shell was resized");

            // One flipped bit in the payload.
            for off in [0, range.len() / 2, range.len() - 1] {
                let mut flipped = bytes.clone();
                flipped[range.start + off] ^= 1 << (off % 8);
                let read = shells().decode_into(&flipped[..], len);
                let expected = ContainerError::ChecksumMismatch {
                    dataset: name.clone(),
                };
                assert!(
                    matches!(&read, Err(ReadError::Format(e)) if *e == expected),
                    "{name} byte {off}: {read:?}"
                );
            }

            // The stream ends mid-payload.
            for cut in [1, PIECE_BYTES, range.len() - 1] {
                let read = shells().decode_into(&bytes[..range.start + cut], len);
                assert!(matches!(read, Err(ReadError::Io(_))), "{name} cut at {cut}");
            }
        }
    }

    #[test]
    fn dataset_lookup() {
        let c = sample();
        assert!(c.dataset("cloud_mask").is_some());
        assert!(c.dataset("nope").is_none());
        let ds = c.dataset("counts").unwrap();
        assert_eq!(ds.data.as_i32(), Some(&[-1, 0, 7][..]));
        assert_eq!(ds.data.as_f32(), None);
    }

    #[test]
    #[should_panic(expected = "does not match payload length")]
    fn dataset_shape_mismatch_panics() {
        Dataset::new("x", vec![2, 2], DatasetData::U8(vec![1, 2, 3]));
    }

    #[test]
    fn empty_container_round_trip() {
        let c = Container::new();
        let back = Container::decode(&c.encode()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn unicode_attrs_round_trip() {
        let c = Container::new().with_attr("τ", "café ☁");
        let back = Container::decode(&c.encode()).unwrap();
        assert_eq!(back.attrs["τ"], "café ☁");
    }
}
