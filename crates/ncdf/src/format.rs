//! Binary encoding/decoding of the NetCDF classic format.
//!
//! Reference: the NetCDF "classic format spec" (CDF-1/CDF-2). Everything is
//! big-endian; names and payloads are zero-padded to 4-byte boundaries;
//! fixed variables live at absolute `begin` offsets followed by the record
//! section, in which each record holds one slab per record variable (with
//! the classic special case: a *single* record variable's records are
//! packed without inter-record padding).

use crate::model::{DimId, NcAttr, NcDim, NcFile, NcType, NcValues, NcVar};
use std::io::{self, Read, Seek, SeekFrom, Write};

/// Magic bytes: `CDF`.
pub const MAGIC: &[u8; 3] = b"CDF";

const TAG_DIMENSION: u32 = 0x0A;
const TAG_VARIABLE: u32 = 0x0B;
const TAG_ATTRIBUTE: u32 = 0x0C;

/// Errors from the NetCDF model or codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NcError {
    /// Buffer ended early or a length field overruns it.
    Truncated,
    /// Not a `CDF` file.
    BadMagic,
    /// Version byte other than 1 or 2.
    BadVersion(u8),
    /// Unexpected list tag.
    BadTag(u32),
    /// Unknown external type tag.
    BadType(u32),
    /// A name is not valid UTF-8.
    BadUtf8,
    /// Payload type differs from the declared variable/attribute type.
    TypeMismatch,
    /// Payload length differs from the declared shape.
    LengthMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements supplied.
        actual: usize,
    },
    /// Reference to an undefined dimension.
    UnknownDim,
    /// Reference to an undefined variable.
    UnknownVar,
    /// The record dimension must be a variable's first dimension.
    RecordDimNotFirst,
    /// Only one record dimension is allowed.
    MultipleRecordDims,
    /// `put_values` called on a record variable.
    RecordVarNeedsRecords,
    /// `append_record` did not cover every record variable exactly once.
    IncompleteRecord,
    /// Structural inconsistency while decoding.
    Corrupt(&'static str),
}

impl std::fmt::Display for NcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NcError::Truncated => write!(f, "file truncated"),
            NcError::BadMagic => write!(f, "not a NetCDF classic file"),
            NcError::BadVersion(v) => write!(f, "unsupported CDF version {v}"),
            NcError::BadTag(t) => write!(f, "unexpected list tag {t:#x}"),
            NcError::BadType(t) => write!(f, "unknown external type {t}"),
            NcError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            NcError::TypeMismatch => write!(f, "value type mismatch"),
            NcError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            NcError::UnknownDim => write!(f, "unknown dimension id"),
            NcError::UnknownVar => write!(f, "unknown variable id"),
            NcError::RecordDimNotFirst => write!(f, "record dimension must be outermost"),
            NcError::MultipleRecordDims => write!(f, "only one record dimension is allowed"),
            NcError::RecordVarNeedsRecords => {
                write!(f, "use append_record for record variables")
            }
            NcError::IncompleteRecord => {
                write!(f, "append_record must cover every record variable once")
            }
            NcError::Corrupt(what) => write!(f, "corrupt file: {what}"),
        }
    }
}

impl std::error::Error for NcError {}

fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// An `InvalidData` I/O error carrying `e`; `get_ref` + `downcast_ref` on it
/// give the [`NcError`] back.
fn invalid(e: NcError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

// ---------------------------------------------------------------- encoding

/// Bytes staged before they are handed to the sink.
const STAGE_BYTES: usize = 64 * 1024;

/// Big-endian serializer over any byte sink. Output is staged in `buf` and
/// handed on in [`STAGE_BYTES`] pieces, so encoding to a file never holds
/// more than one piece and encoding to memory appends to one pre-sized
/// vector.
struct Writer<'w, W: Write> {
    buf: Vec<u8>,
    sink: &'w mut W,
    /// Bytes already handed to `sink`.
    flushed: u64,
}

impl<W: Write> Writer<'_, W> {
    /// Offset in the file of the next byte written.
    fn pos(&self) -> u64 {
        self.flushed + self.buf.len() as u64
    }
    fn flush(&mut self) -> io::Result<()> {
        self.sink.write_all(&self.buf)?;
        self.flushed += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }
    fn name(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self.zeros(pad4(s.len()) - s.len());
    }
    /// Elements `start..end` of `v`, big-endian, unpadded; returns the byte
    /// count.
    fn slab(&mut self, v: &NcValues, start: usize, end: usize) -> io::Result<usize> {
        fn put_be<W: Write, T: Copy, const N: usize>(
            w: &mut Writer<'_, W>,
            xs: &[T],
            be: impl Fn(T) -> [u8; N],
        ) -> io::Result<usize> {
            for piece in xs.chunks(STAGE_BYTES / N) {
                let at = w.buf.len();
                w.buf.resize(at + piece.len() * N, 0);
                for (dst, &x) in w.buf[at..].chunks_exact_mut(N).zip(piece) {
                    dst.copy_from_slice(&be(x));
                }
                if w.buf.len() >= STAGE_BYTES {
                    w.flush()?;
                }
            }
            Ok(xs.len() * N)
        }
        match v {
            NcValues::Byte(xs) => put_be(self, &xs[start..end], i8::to_be_bytes),
            NcValues::Char(xs) => put_be(self, &xs[start..end], u8::to_be_bytes),
            NcValues::Short(xs) => put_be(self, &xs[start..end], i16::to_be_bytes),
            NcValues::Int(xs) => put_be(self, &xs[start..end], i32::to_be_bytes),
            NcValues::Float(xs) => put_be(self, &xs[start..end], f32::to_be_bytes),
            NcValues::Double(xs) => put_be(self, &xs[start..end], f64::to_be_bytes),
        }
    }
    /// All of `v`, zero-padded to a 4-byte boundary.
    fn values(&mut self, v: &NcValues) -> io::Result<()> {
        let written = self.slab(v, 0, v.len())?;
        self.zeros(pad4(written) - written);
        Ok(())
    }
    fn attr_list(&mut self, attrs: &[NcAttr]) -> io::Result<()> {
        if attrs.is_empty() {
            self.u32(0);
            self.u32(0);
            return Ok(());
        }
        self.u32(TAG_ATTRIBUTE);
        self.u32(attrs.len() as u32);
        for a in attrs {
            self.name(&a.name);
            self.u32(a.values.nc_type().tag());
            self.u32(a.values.len() as u32);
            self.values(&a.values)?;
        }
        Ok(())
    }
}

/// Unpadded byte size of one "slab": the full variable for fixed variables,
/// one record for record variables.
fn slab_bytes(file: &NcFile, var: &NcVar) -> usize {
    checked_slab_bytes(&file.dims, var).expect("slab size fits in memory")
}

/// [`slab_bytes`] for a shape read from bytes, which may be forged: `None`
/// when the size overflows.
fn checked_slab_bytes(dims: &[NcDim], var: &NcVar) -> Option<usize> {
    var.dims
        .iter()
        .map(|d| dims[d.0].len)
        .filter(|&l| l > 0)
        .try_fold(var.nc_type.size(), usize::checked_mul)
}

fn is_record_var(file: &NcFile, var: &NcVar) -> bool {
    first_dim_is_record(&file.dims, var)
}

fn first_dim_is_record(dims: &[NcDim], var: &NcVar) -> bool {
    var.dims.first().is_some_and(|d| dims[d.0].is_record())
}

/// Header size given an offset width (4 for CDF-1, 8 for CDF-2).
fn header_size(file: &NcFile, offset_width: usize) -> usize {
    let name_sz = |s: &str| 4 + pad4(s.len());
    let attrs_sz = |attrs: &[NcAttr]| -> usize {
        8 + attrs
            .iter()
            .map(|a| name_sz(&a.name) + 8 + pad4(a.values.len() * a.values.nc_type().size()))
            .sum::<usize>()
    };
    let mut sz = 4 + 4; // magic+version, numrecs
    sz += 8; // dim list tag+count (ABSENT is also 8 bytes)
    for d in &file.dims {
        sz += name_sz(&d.name) + 4;
    }
    sz += attrs_sz(&file.gatts);
    sz += 8; // var list tag+count
    for v in &file.vars {
        sz += name_sz(&v.name) + 4 + 4 * v.dims.len();
        sz += attrs_sz(&v.attrs);
        sz += 4 + 4 + offset_width; // nc_type, vsize, begin
    }
    sz
}

/// Where everything goes: the version byte, each variable's `begin`, and
/// the size of the whole file.
struct Layout {
    version: u8,
    begins: Vec<u64>,
    total: u64,
    /// Indices of the fixed-size variables, in definition order.
    fixed: Vec<usize>,
    /// Indices of the record variables, in definition order.
    record: Vec<usize>,
}

/// Lay the file out. Chooses CDF-1 unless any offset needs 64 bits.
fn layout(file: &NcFile) -> Layout {
    let fixed: Vec<usize> = (0..file.vars.len())
        .filter(|&i| !is_record_var(file, &file.vars[i]))
        .collect();
    let record: Vec<usize> = (0..file.vars.len())
        .filter(|&i| is_record_var(file, &file.vars[i]))
        .collect();
    let record_slab = |i: usize| -> u64 {
        let bytes = slab_bytes(file, &file.vars[i]);
        // A single record variable is packed: no padding between records.
        (if record.len() == 1 {
            bytes
        } else {
            pad4(bytes)
        }) as u64
    };

    // Decide version by laying out with 4-byte offsets first.
    let mut begins = vec![0u64; file.vars.len()];
    for version in [1u8, 2] {
        let width = if version == 1 { 4 } else { 8 };
        let mut off = header_size(file, width) as u64;
        for &i in &fixed {
            begins[i] = off;
            off += pad4(slab_bytes(file, &file.vars[i])) as u64;
        }
        let record_begin = off;
        for &i in &record {
            begins[i] = off;
            off += record_slab(i);
        }
        let record_stride: u64 = record.iter().map(|&i| record_slab(i)).sum();
        let end = begins
            .iter()
            .copied()
            .max()
            .unwrap_or(off)
            .max(off + record_stride * file.numrecs.saturating_sub(1) as u64);
        if version == 2 || end <= i32::MAX as u64 {
            return Layout {
                version,
                total: record_begin + record_stride * file.numrecs as u64,
                begins,
                fixed,
                record,
            };
        }
        // Otherwise lay out again with 8-byte offsets.
    }
    unreachable!("the CDF-2 pass always returns")
}

/// Encode to classic bytes in memory: one allocation of the file's size.
pub fn encode(file: &NcFile) -> Result<Vec<u8>, NcError> {
    validate(file)?;
    let layout = layout(file);
    let mut out = Vec::with_capacity(layout.total as usize);
    write(file, &layout, &mut out).expect("writing to a Vec cannot fail");
    Ok(out)
}

/// Encode to classic bytes straight into `sink` (a file, typically), holding
/// no more than [`STAGE_BYTES`] of them at a time. A file that fails
/// validation is an `InvalidData` error and nothing is written.
pub fn encode_into<W: Write>(file: &NcFile, sink: &mut W) -> io::Result<()> {
    validate(file).map_err(invalid)?;
    write(file, &layout(file), sink)
}

fn write<W: Write>(file: &NcFile, layout: &Layout, sink: &mut W) -> io::Result<()> {
    let Layout {
        version,
        begins,
        total,
        fixed,
        record,
    } = layout;
    let mut w = Writer {
        buf: Vec::with_capacity(STAGE_BYTES.min(*total as usize)),
        sink,
        flushed: 0,
    };
    w.buf.extend_from_slice(MAGIC);
    w.u8(*version);
    w.u32(file.numrecs as u32);

    // dim list
    if file.dims.is_empty() {
        w.u32(0);
        w.u32(0);
    } else {
        w.u32(TAG_DIMENSION);
        w.u32(file.dims.len() as u32);
        for d in &file.dims {
            w.name(&d.name);
            w.u32(d.len as u32);
        }
    }

    w.attr_list(&file.gatts)?;

    // var list
    if file.vars.is_empty() {
        w.u32(0);
        w.u32(0);
    } else {
        w.u32(TAG_VARIABLE);
        w.u32(file.vars.len() as u32);
        for (i, v) in file.vars.iter().enumerate() {
            w.name(&v.name);
            w.u32(v.dims.len() as u32);
            for d in &v.dims {
                w.u32(d.0 as u32);
            }
            w.attr_list(&v.attrs)?;
            w.u32(v.nc_type.tag());
            let vsize = if is_record_var(file, v) && record.len() == 1 {
                // Spec: single record variable may carry unpadded vsize.
                slab_bytes(file, v)
            } else {
                pad4(slab_bytes(file, v))
            };
            w.u32(vsize.min(u32::MAX as usize) as u32);
            if *version == 1 {
                w.u32(begins[i] as u32);
            } else {
                w.u64(begins[i]);
            }
        }
    }

    debug_assert_eq!(
        w.pos(),
        header_size(file, if *version == 1 { 4 } else { 8 }) as u64,
        "header layout mismatch"
    );

    // Fixed variable data; `values` pads each to 4 bytes, as `begins` assumes.
    for &i in fixed {
        debug_assert_eq!(w.pos(), begins[i]);
        w.values(&file.vars[i].data)?;
    }

    // Record data: records interleaved across record variables.
    for rec in 0..file.numrecs {
        for &i in record {
            let v = &file.vars[i];
            let slab_elems = slab_bytes(file, v) / v.nc_type.size();
            let written = w.slab(&v.data, rec * slab_elems, (rec + 1) * slab_elems)?;
            // A single record variable is packed: no padding between records.
            if record.len() > 1 {
                w.zeros(pad4(written) - written);
            }
        }
    }

    debug_assert_eq!(w.pos(), *total, "file layout mismatch");
    w.flush()
}

fn validate(file: &NcFile) -> Result<(), NcError> {
    if file.dims.iter().filter(|d| d.is_record()).count() > 1 {
        return Err(NcError::MultipleRecordDims);
    }
    for v in &file.vars {
        for (i, d) in v.dims.iter().enumerate() {
            let dim = file.dims.get(d.0).ok_or(NcError::UnknownDim)?;
            if dim.is_record() && i != 0 {
                return Err(NcError::RecordDimNotFirst);
            }
        }
        let expect = if is_record_var(file, v) {
            (slab_bytes(file, v) / v.nc_type.size()) * file.numrecs
        } else {
            slab_bytes(file, v) / v.nc_type.size()
        };
        if v.data.nc_type() != v.nc_type {
            return Err(NcError::TypeMismatch);
        }
        if v.data.len() != expect {
            return Err(NcError::LengthMismatch {
                expected: expect,
                actual: v.data.len(),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reject an element count the remaining bytes cannot hold (each element
    /// takes at least `min_bytes`), so a forged count is a typed error and
    /// never a reservation.
    fn check_count(&self, count: usize, min_bytes: usize) -> Result<(), NcError> {
        if count > self.remaining() / min_bytes {
            return Err(NcError::Truncated);
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NcError> {
        if n > self.remaining() {
            return Err(NcError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, NcError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, NcError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, NcError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }
    fn name(&mut self) -> Result<String, NcError> {
        let len = self.u32()? as usize;
        let bytes = self.take(pad4(len))?;
        std::str::from_utf8(&bytes[..len])
            .map(str::to_owned)
            .map_err(|_| NcError::BadUtf8)
    }
    /// `n` values of type `t` plus their padding to a 4-byte boundary.
    fn values(&mut self, t: NcType, n: usize) -> Result<NcValues, NcError> {
        let nbytes = n.checked_mul(t.size()).ok_or(NcError::Truncated)?;
        let raw = self.take(pad4(nbytes))?;
        let mut values = NcValues::empty(t);
        append_be(&mut values, &raw[..nbytes]);
        Ok(values)
    }
    fn attr_list(&mut self) -> Result<Vec<NcAttr>, NcError> {
        let tag = self.u32()?;
        let count = self.u32()? as usize;
        if tag == 0 {
            if count != 0 {
                return Err(NcError::Corrupt("ABSENT list with nonzero count"));
            }
            return Ok(Vec::new());
        }
        if tag != TAG_ATTRIBUTE {
            return Err(NcError::BadTag(tag));
        }
        // An attribute is at least name length + type + value count.
        self.check_count(count, 12)?;
        let mut attrs = Vec::with_capacity(count);
        for _ in 0..count {
            let name = self.name()?;
            let t = NcType::from_tag(self.u32()?).ok_or(NcError::BadType(0))?;
            let n = self.u32()? as usize;
            let values = self.values(t, n)?;
            attrs.push(NcAttr { name, values });
        }
        Ok(attrs)
    }
}

/// Append the big-endian `N`-byte elements of `raw` to `dst`.
fn get_be<T, const N: usize>(dst: &mut Vec<T>, raw: &[u8], be: impl Fn([u8; N]) -> T) {
    dst.extend(
        raw.chunks_exact(N)
            .map(|c| be(c.try_into().expect("chunk of N bytes"))),
    );
}

/// Append the big-endian elements in `raw` to `dst`, whose type decides the
/// element width.
fn append_be(dst: &mut NcValues, raw: &[u8]) {
    match dst {
        NcValues::Byte(xs) => get_be(xs, raw, i8::from_be_bytes),
        NcValues::Char(xs) => xs.extend_from_slice(raw),
        NcValues::Short(xs) => get_be(xs, raw, i16::from_be_bytes),
        NcValues::Int(xs) => get_be(xs, raw, i32::from_be_bytes),
        NcValues::Float(xs) => get_be(xs, raw, f32::from_be_bytes),
        NcValues::Double(xs) => get_be(xs, raw, f64::from_be_bytes),
    }
}

/// Reserve room for `additional` more elements.
fn reserve(dst: &mut NcValues, additional: usize) {
    match dst {
        NcValues::Byte(xs) => xs.reserve_exact(additional),
        NcValues::Char(xs) => xs.reserve_exact(additional),
        NcValues::Short(xs) => xs.reserve_exact(additional),
        NcValues::Int(xs) => xs.reserve_exact(additional),
        NcValues::Float(xs) => xs.reserve_exact(additional),
        NcValues::Double(xs) => xs.reserve_exact(additional),
    }
}

/// One variable as the header declares it.
struct VarHdr {
    var: NcVar,
    vsize: u32,
    begin: u64,
}

/// Everything before the data: what [`decode`] needs to find the values and
/// all [`RecordVarSpan::locate`] reads.
struct Header {
    numrecs: usize,
    dims: Vec<NcDim>,
    gatts: Vec<NcAttr>,
    vars: Vec<VarHdr>,
    /// Bytes the header takes.
    len: usize,
}

impl Header {
    /// Parse the header at the start of `bytes`. [`NcError::Truncated`] means
    /// `bytes` ended before the header did (or a count claims more than
    /// `bytes` holds).
    fn parse(bytes: &[u8]) -> Result<Header, NcError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(3)? != MAGIC {
            return Err(NcError::BadMagic);
        }
        let version = r.u8()?;
        if version != 1 && version != 2 {
            return Err(NcError::BadVersion(version));
        }
        let numrecs = r.u32()? as usize;

        let tag = r.u32()?;
        let count = r.u32()? as usize;
        let mut dims = Vec::new();
        match tag {
            0 if count == 0 => {}
            TAG_DIMENSION => {
                for _ in 0..count {
                    let name = r.name()?;
                    let len = r.u32()? as usize;
                    dims.push(NcDim { name, len });
                }
            }
            t => return Err(NcError::BadTag(t)),
        }

        let gatts = r.attr_list()?;

        let tag = r.u32()?;
        let count = r.u32()? as usize;
        let mut vars = Vec::new();
        match tag {
            0 if count == 0 => {}
            TAG_VARIABLE => {
                for _ in 0..count {
                    let name = r.name()?;
                    let rank = r.u32()? as usize;
                    r.check_count(rank, 4)?;
                    let mut vdims = Vec::with_capacity(rank);
                    for _ in 0..rank {
                        let id = r.u32()? as usize;
                        if id >= dims.len() {
                            return Err(NcError::UnknownDim);
                        }
                        vdims.push(DimId(id));
                    }
                    let attrs = r.attr_list()?;
                    let t = r.u32()?;
                    let nc_type = NcType::from_tag(t).ok_or(NcError::BadType(t))?;
                    let vsize = r.u32()?;
                    let begin = if version == 1 {
                        r.u32()? as u64
                    } else {
                        r.u64()?
                    };
                    vars.push(VarHdr {
                        var: NcVar {
                            name,
                            dims: vdims,
                            attrs,
                            nc_type,
                            data: NcValues::empty(nc_type),
                        },
                        vsize,
                        begin,
                    });
                }
            }
            t => return Err(NcError::BadTag(t)),
        }
        Ok(Header {
            numrecs,
            dims,
            gatts,
            vars,
            len: r.pos,
        })
    }

    /// The record variables in definition order, each with the bytes its
    /// slab takes inside a record (padded to 4 unless it is the only one).
    fn record_slabs(&self) -> Result<Vec<(usize, usize)>, NcError> {
        let record: Vec<usize> = (0..self.vars.len())
            .filter(|&i| first_dim_is_record(&self.dims, &self.vars[i].var))
            .collect();
        record
            .iter()
            .map(|&i| {
                let bytes = checked_slab_bytes(&self.dims, &self.vars[i].var);
                let in_record = if record.len() == 1 {
                    bytes
                } else {
                    bytes.and_then(|b| b.checked_next_multiple_of(4))
                };
                Ok((i, in_record.ok_or(NcError::Truncated)?))
            })
            .collect()
    }

    /// Check what [`decode`] takes on trust: that the header declares each
    /// of `record_slabs`' sizes as its `vsize` and places the record
    /// variables back to back in that order, after the header.
    fn check_record_layout(&self, record_slabs: &[(usize, usize)]) -> Result<(), NcError> {
        let mut expected_begin = Some(self.len as u64);
        for (k, &(i, in_record)) in record_slabs.iter().enumerate() {
            let h = &self.vars[i];
            // The writer caps `vsize` at `u32::MAX`; a lone record variable
            // may declare its size padded or not.
            let padded = in_record.next_multiple_of(4).min(u32::MAX as usize);
            if h.vsize as usize != padded && h.vsize as usize != in_record {
                return Err(NcError::Corrupt(
                    "vsize disagrees with the variable's shape",
                ));
            }
            let placed = match expected_begin {
                Some(b) if k == 0 => h.begin >= b,
                Some(b) => h.begin == b,
                None => false,
            };
            if !placed {
                return Err(NcError::Corrupt(
                    "record variables are not back to back after the header",
                ));
            }
            expected_begin = h.begin.checked_add(in_record as u64);
        }
        Ok(())
    }
}

/// Decode classic bytes into an [`NcFile`].
pub fn decode(bytes: &[u8]) -> Result<NcFile, NcError> {
    let header = Header::parse(bytes)?;
    let record = header.record_slabs()?;
    let base = record.first().map(|&(i, _)| header.vars[i].begin as usize);
    let begins: Vec<usize> = header.vars.iter().map(|h| h.begin as usize).collect();
    let numrecs = header.numrecs;
    let mut file = NcFile {
        dims: header.dims,
        gatts: header.gatts,
        vars: header.vars.into_iter().map(|h| h.var).collect(),
        numrecs,
    };

    // Read fixed variables.
    for (var, &begin) in file.vars.iter_mut().zip(&begins) {
        if first_dim_is_record(&file.dims, var) {
            continue;
        }
        let nbytes = checked_slab_bytes(&file.dims, var).ok_or(NcError::Truncated)?;
        let mut rr = Reader {
            buf: bytes,
            pos: begin,
        };
        var.data = rr.values(var.nc_type, nbytes / var.nc_type.size())?;
    }

    // Read record variables.
    if let Some(base) = base {
        let stride: usize = record.iter().map(|&(_, in_record)| in_record).sum();
        // Every record must lie inside the file; checked before anything is
        // reserved for them, so a forged `numrecs` is a typed error.
        let end = numrecs
            .checked_mul(stride)
            .and_then(|n| n.checked_add(base));
        if end.is_none_or(|end| end > bytes.len()) {
            return Err(NcError::Truncated);
        }
        for &(i, _) in &record {
            let elems = slab_bytes(&file, &file.vars[i]) / file.vars[i].nc_type.size();
            reserve(&mut file.vars[i].data, numrecs * elems);
        }
        // Each slab is decoded straight onto the end of its variable.
        let mut off = base;
        for _ in 0..numrecs {
            for &(i, in_record) in &record {
                let nbytes = slab_bytes(&file, &file.vars[i]);
                append_be(&mut file.vars[i].data, &bytes[off..off + nbytes]);
                off += in_record;
            }
        }
    }

    Ok(file)
}

/// Where one record variable's values lie in an encoded file, found by
/// reading the header alone — so they can be read, or overwritten in place,
/// without decoding (or holding) the rest of the file.
///
/// Every count the header declares is checked against the file's length
/// before anything is sized by it, and the span itself is checked to lie
/// inside the file, so a forged header is a typed [`NcError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordVarSpan {
    nc_type: NcType,
    /// Elements per record.
    slab_len: usize,
    begin: u64,
    stride: u64,
    numrecs: usize,
}

/// How much of a file [`RecordVarSpan::locate`] reads first; a tile file's
/// header is under 1 KiB.
const HEADER_GUESS: u64 = 4096;

impl RecordVarSpan {
    /// Locate record variable `name` in `file`, reading only its header (in
    /// growing prefixes, never more than the file holds). Failures in the
    /// header are `InvalidData` errors that carry the [`NcError`]:
    /// [`NcError::UnknownVar`] when no record variable has that name.
    pub fn locate(file: &mut (impl Read + Seek), name: &str) -> io::Result<RecordVarSpan> {
        let file_len = file.seek(SeekFrom::End(0))?;
        let mut head = Vec::new();
        let mut want = HEADER_GUESS.min(file_len);
        let header = loop {
            file.seek(SeekFrom::Start(head.len() as u64))?;
            let more = want - head.len() as u64;
            if (&mut *file).take(more).read_to_end(&mut head)? as u64 != more {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            match Header::parse(&head) {
                Err(NcError::Truncated) if want < file_len => want = (want * 2).min(file_len),
                parsed => break parsed.map_err(invalid)?,
            }
        };
        Self::in_header(&header, file_len, name).map_err(invalid)
    }

    fn in_header(header: &Header, file_len: u64, name: &str) -> Result<RecordVarSpan, NcError> {
        let record = header.record_slabs()?;
        header.check_record_layout(&record)?;
        let &(var, _) = record
            .iter()
            .find(|&&(i, _)| header.vars[i].var.name == name)
            .ok_or(NcError::UnknownVar)?;
        let stride: u64 = record.iter().map(|&(_, in_record)| in_record as u64).sum();
        let base = header.vars[record[0].0].begin;
        let end = (header.numrecs as u64)
            .checked_mul(stride)
            .and_then(|n| n.checked_add(base));
        if end.is_none_or(|end| end > file_len) {
            return Err(NcError::Truncated);
        }
        let VarHdr { var, begin, .. } = &header.vars[var];
        Ok(RecordVarSpan {
            nc_type: var.nc_type,
            slab_len: checked_slab_bytes(&header.dims, var).ok_or(NcError::Truncated)?
                / var.nc_type.size(),
            begin: *begin,
            stride,
            numrecs: header.numrecs,
        })
    }

    /// Offset in the file of the variable's first record.
    pub fn begin(&self) -> u64 {
        self.begin
    }

    /// Bytes from one record of the variable to the next.
    pub fn record_stride(&self) -> u64 {
        self.stride
    }

    /// Records in the file.
    pub fn numrecs(&self) -> usize {
        self.numrecs
    }

    fn record_offset(&self, rec: usize) -> SeekFrom {
        SeekFrom::Start(self.begin + rec as u64 * self.stride)
    }

    /// Read the variable's values, all records in order, touching nothing
    /// else in the file.
    pub fn read(&self, file: &mut (impl Read + Seek)) -> io::Result<NcValues> {
        let mut values = NcValues::empty(self.nc_type);
        reserve(&mut values, self.numrecs * self.slab_len);
        self.for_each_record(file, |raw| append_be(&mut values, raw))?;
        Ok(values)
    }

    /// [`read`](Self::read) of a `float` variable into `out`, which is
    /// cleared first and keeps its allocation: a caller that reads the same
    /// variable of one file after another holds a single buffer. Any other
    /// type is [`NcError::TypeMismatch`].
    pub fn read_f32_into(
        &self,
        file: &mut (impl Read + Seek),
        out: &mut Vec<f32>,
    ) -> io::Result<()> {
        if self.nc_type != NcType::Float {
            return Err(invalid(NcError::TypeMismatch));
        }
        out.clear();
        out.reserve_exact(self.numrecs * self.slab_len);
        self.for_each_record(file, |raw| get_be(out, raw, f32::from_be_bytes))
    }

    /// Hand each record's slab of the variable, still big-endian, to `each`.
    fn for_each_record(
        &self,
        file: &mut (impl Read + Seek),
        mut each: impl FnMut(&[u8]),
    ) -> io::Result<()> {
        let mut raw = vec![0u8; self.slab_len * self.nc_type.size()];
        for rec in 0..self.numrecs {
            file.seek(self.record_offset(rec))?;
            file.read_exact(&mut raw)?;
            each(&raw);
        }
        Ok(())
    }

    /// Overwrite the variable's values in place — all records, in order;
    /// `values` must have the variable's type and `numrecs` records' worth
    /// of elements. Every other byte of the file is left as it is.
    pub fn write(&self, file: &mut (impl Write + Seek), values: &NcValues) -> io::Result<()> {
        if values.nc_type() != self.nc_type {
            return Err(invalid(NcError::TypeMismatch));
        }
        if values.len() != self.numrecs * self.slab_len {
            return Err(invalid(NcError::LengthMismatch {
                expected: self.numrecs * self.slab_len,
                actual: values.len(),
            }));
        }
        let mut w = Writer {
            buf: Vec::new(),
            sink: file,
            flushed: 0,
        };
        for rec in 0..self.numrecs {
            w.sink.seek(self.record_offset(rec))?;
            w.slab(values, rec * self.slab_len, (rec + 1) * self.slab_len)?;
            w.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NcFile, NcType, NcValues};

    fn sample() -> NcFile {
        let mut f = NcFile::new();
        let y = f.add_dim("y", 2);
        let x = f.add_dim("x", 3);
        f.add_global_attr("title", NcValues::text("test file"));
        f.add_global_attr("version", NcValues::Int(vec![3]));
        let v = f.add_var("temp", NcType::Float, vec![y, x]).unwrap();
        f.add_var_attr(v, "units", NcValues::text("K")).unwrap();
        f.put_values(v, NcValues::Float(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
            .unwrap();
        let m = f.add_var("mask", NcType::Byte, vec![y, x]).unwrap();
        f.put_values(m, NcValues::Byte(vec![0, 1, 0, 1, 1, 0]))
            .unwrap();
        let s = f.add_var("scalar", NcType::Double, vec![]).unwrap();
        f.put_values(s, NcValues::Double(vec![2.5])).unwrap();
        f
    }

    #[test]
    fn header_starts_with_cdf1_magic() {
        let bytes = sample().encode().unwrap();
        assert_eq!(&bytes[..3], b"CDF");
        assert_eq!(bytes[3], 1);
        // numrecs (no record dim) is 0.
        assert_eq!(&bytes[4..8], &[0, 0, 0, 0]);
        // dim list tag 0x0A, count 2.
        assert_eq!(&bytes[8..12], &[0, 0, 0, 0x0A]);
        assert_eq!(&bytes[12..16], &[0, 0, 0, 2]);
        // first dim name: len 1, "y" padded to 4, len 2.
        assert_eq!(&bytes[16..20], &[0, 0, 0, 1]);
        assert_eq!(&bytes[20..24], b"y\0\0\0");
        assert_eq!(&bytes[24..28], &[0, 0, 0, 2]);
    }

    #[test]
    fn forged_counts_are_truncation_not_reservations() {
        let good = sample().encode().unwrap();
        // Global attribute count: after magic, numrecs and the two dims.
        let mut bytes = good.clone();
        assert_eq!(&bytes[40..48], &[0, 0, 0, 0x0C, 0, 0, 0, 2]);
        bytes[44..48].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(NcFile::decode(&bytes), Err(NcError::Truncated));
        // Rank of the first variable: right after its name.
        let mut bytes = good.clone();
        let rank_at = bytes.windows(4).position(|w| w == b"temp").unwrap() + 4;
        assert_eq!(&bytes[rank_at..rank_at + 4], &[0, 0, 0, 2]);
        bytes[rank_at..rank_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(NcFile::decode(&bytes), Err(NcError::Truncated));
        // Record count of a file with a record variable: bytes 4..8.
        let mut f = NcFile::new();
        let t = f.add_record_dim("t").unwrap();
        let v = f.add_var("v", NcType::Int, vec![t]).unwrap();
        f.append_record(vec![(v, NcValues::Int(vec![7]))]).unwrap();
        let mut bytes = f.encode().unwrap();
        bytes[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(NcFile::decode(&bytes), Err(NcError::Truncated));
    }

    /// A tile-file-like dataset: a wide record variable, two narrow ones
    /// (one of them an odd number of bytes), a fixed variable.
    fn records() -> NcFile {
        let mut f = NcFile::new();
        let t = f.add_record_dim("tile").unwrap();
        let b = f.add_dim("band", 3);
        let n = f.add_dim("n", 5);
        f.add_global_attr("source", NcValues::text("test"));
        let fixed = f.add_var("fixed", NcType::Short, vec![n]).unwrap();
        f.put_values(fixed, NcValues::Short(vec![1, 2, 3, 4, 5]))
            .unwrap();
        let rad = f.add_var("rad", NcType::Float, vec![t, b]).unwrap();
        let flag = f.add_var("flag", NcType::Byte, vec![t, b]).unwrap();
        let lab = f.add_var("label", NcType::Int, vec![t]).unwrap();
        f.add_var_attr(lab, "long_name", NcValues::text("a label"))
            .unwrap();
        for i in 0..7 {
            f.append_record(vec![
                (rad, NcValues::Float(vec![i as f32, 0.5, -(i as f32)])),
                (flag, NcValues::Byte(vec![i as i8, -1, 1])),
                (lab, NcValues::Int(vec![crate::NC_FILL_INT])),
            ])
            .unwrap();
        }
        f
    }

    fn nc_error(e: &io::Error) -> Option<&NcError> {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        e.get_ref().and_then(|inner| inner.downcast_ref())
    }

    #[test]
    fn record_variable_is_read_and_patched_in_place() {
        let mut f = records();
        let mut disk = io::Cursor::new(f.encode().unwrap());
        for name in ["rad", "flag", "label"] {
            let span = RecordVarSpan::locate(&mut disk, name).unwrap();
            assert_eq!(span.numrecs(), 7);
            assert_eq!(span.record_stride(), 12 + 4 + 4);
            assert_eq!(
                span.read(&mut disk).unwrap(),
                f.var_by_name(name).unwrap().data
            );
        }
        // A float variable into a caller's buffer: cleared, refilled, and
        // not reallocated once it is large enough; other types are refused.
        let rad = RecordVarSpan::locate(&mut disk, "rad").unwrap();
        let mut floats = vec![9.0f32; 64];
        let held = floats.as_ptr();
        rad.read_f32_into(&mut disk, &mut floats).unwrap();
        assert_eq!(
            Some(&floats[..]),
            f.var_by_name("rad").unwrap().data.as_f32()
        );
        assert_eq!(floats.as_ptr(), held);
        let flag = RecordVarSpan::locate(&mut disk, "flag").unwrap();
        let e = flag.read_f32_into(&mut disk, &mut floats).unwrap_err();
        assert_eq!(nc_error(&e), Some(&NcError::TypeMismatch));

        // Patching equals changing the values and encoding again.
        let labels = NcValues::Int((0..7).map(|i| i * 3 - 4).collect());
        let flags = NcValues::Byte((0..21).map(|i| i as i8 - 9).collect());
        let label = RecordVarSpan::locate(&mut disk, "label").unwrap();
        assert_eq!(
            label.begin() + 6 * label.record_stride() + 4,
            disk.get_ref().len() as u64,
            "the last variable of the last record ends the file"
        );
        label.write(&mut disk, &labels).unwrap();
        let flag = RecordVarSpan::locate(&mut disk, "flag").unwrap();
        flag.write(&mut disk, &flags).unwrap();
        let (label_id, flag_id) = (f.var_id("label").unwrap(), f.var_id("flag").unwrap());
        f.vars[label_id.0].data = labels.clone();
        f.vars[flag_id.0].data = flags;
        assert_eq!(disk.get_ref(), &f.encode().unwrap());
        assert_eq!(label.read(&mut disk).unwrap(), labels);

        // Wrong type, wrong count: refused before a byte is written.
        let before = disk.get_ref().clone();
        let e = label
            .write(&mut disk, &NcValues::Float(vec![0.0; 7]))
            .unwrap_err();
        assert_eq!(nc_error(&e), Some(&NcError::TypeMismatch));
        let e = label
            .write(&mut disk, &NcValues::Int(vec![0; 6]))
            .unwrap_err();
        assert_eq!(
            nc_error(&e),
            Some(&NcError::LengthMismatch {
                expected: 7,
                actual: 6
            })
        );
        assert_eq!(disk.get_ref(), &before);

        // Fixed and missing variables are not record variables.
        for name in ["fixed", "nope"] {
            let e = RecordVarSpan::locate(&mut disk, name).unwrap_err();
            assert_eq!(nc_error(&e), Some(&NcError::UnknownVar));
        }
    }

    #[test]
    fn lone_record_variable_is_packed_and_headers_may_outgrow_the_first_read() {
        let mut f = NcFile::new();
        let t = f.add_record_dim("t").unwrap();
        let c = f.add_dim("c", 3);
        // A header several times HEADER_GUESS long.
        f.add_global_attr("history", NcValues::text(&"x".repeat(20_000)));
        let v = f.add_var("v", NcType::Byte, vec![t, c]).unwrap();
        for i in 0..4i8 {
            f.append_record(vec![(v, NcValues::Byte(vec![i, i + 1, i + 2]))])
                .unwrap();
        }
        let mut disk = io::Cursor::new(f.encode().unwrap());
        let span = RecordVarSpan::locate(&mut disk, "v").unwrap();
        assert_eq!(span.record_stride(), 3, "no padding between records");
        assert_eq!(span.read(&mut disk).unwrap(), f.vars[v.0].data);
        let new = NcValues::Byte((0..12).collect());
        span.write(&mut disk, &new).unwrap();
        f.vars[v.0].data = new;
        assert_eq!(disk.get_ref(), &f.encode().unwrap());
    }

    #[test]
    fn forged_headers_are_typed_errors_for_the_header_only_reader() {
        let good = records().encode().unwrap();
        let locate = |bytes: &[u8]| {
            let e = RecordVarSpan::locate(&mut io::Cursor::new(bytes), "label").unwrap_err();
            nc_error(&e).cloned()
        };
        let at = |needle: &[u8]| {
            good.windows(needle.len())
                .position(|w| w == needle)
                .unwrap()
        };
        let forge = |pos: usize, value: u32| {
            let mut bytes = good.clone();
            bytes[pos..pos + 4].copy_from_slice(&value.to_be_bytes());
            bytes
        };
        // numrecs: one more record than the file holds, and far more.
        assert_eq!(locate(&forge(4, 8)), Some(NcError::Truncated));
        assert_eq!(locate(&forge(4, u32::MAX)), Some(NcError::Truncated));
        // The variable entry of `label` ends: type, vsize, begin.
        let label = at(b"a label\0") + 8;
        assert_eq!(&good[label..label + 8], &[0, 0, 0, 4, 0, 0, 0, 4]);
        let corrupt = |e: Option<NcError>| matches!(e, Some(NcError::Corrupt(_)));
        assert!(corrupt(locate(&forge(label + 4, 8))), "vsize");
        assert!(corrupt(locate(&forge(label + 4, u32::MAX))), "vsize");
        assert!(corrupt(locate(&forge(label + 8, 0))), "begin");
        assert!(corrupt(locate(&forge(label + 8, u32::MAX))), "begin");
        // `begin` of the first record variable: inside the header, and so
        // far out that the records overrun the file.
        let rad = at(b"rad\0") + 4 + 4 + 8 + 8 + 8;
        assert_eq!(&good[rad - 8..rad], &[0, 0, 0, 5, 0, 0, 0, 12]);
        assert!(corrupt(locate(&forge(rad, 16))), "begin in the header");
        assert!(corrupt(locate(&forge(rad, u32::MAX - 3))), "begin");
        // Counts: dimensions, global attributes, variables, a rank, a
        // dimension length that makes a record larger than any file.
        assert_eq!(locate(&forge(12, u32::MAX)), Some(NcError::Truncated));
        let gatts = at(b"source\0\0") - 12;
        assert_eq!(&good[gatts..gatts + 4], &[0, 0, 0, 0x0C]);
        assert_eq!(
            locate(&forge(gatts + 4, u32::MAX)),
            Some(NcError::Truncated)
        );
        let vars = at(b"fixed\0\0\0") - 12;
        assert_eq!(&good[vars..vars + 4], &[0, 0, 0, 0x0B]);
        assert_eq!(locate(&forge(vars + 4, u32::MAX)), Some(NcError::Truncated));
        assert_eq!(
            locate(&forge(at(b"rad\0") + 4, u32::MAX)),
            Some(NcError::Truncated)
        );
        let band_len = at(b"band") + 4;
        assert!(locate(&forge(band_len, u32::MAX)).is_some());
        // Cut anywhere, it is an error and never a panic.
        for cut in 0..good.len() {
            let short = &good[..cut];
            assert!(RecordVarSpan::locate(&mut io::Cursor::new(short), "label").is_err());
        }
        assert!(locate(&good[..good.len() - 1]) == Some(NcError::Truncated));
    }

    #[test]
    fn fixed_round_trip() {
        let f = sample();
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn record_round_trip_multiple_vars() {
        let mut f = NcFile::new();
        let t = f.add_record_dim("tile").unwrap();
        let b = f.add_dim("band", 3);
        let rad = f.add_var("rad", NcType::Float, vec![t, b]).unwrap();
        let lab = f.add_var("label", NcType::Int, vec![t]).unwrap();
        let flag = f.add_var("flag", NcType::Byte, vec![t]).unwrap();
        for i in 0..5 {
            f.append_record(vec![
                (
                    rad,
                    NcValues::Float(vec![i as f32, i as f32 + 0.5, -(i as f32)]),
                ),
                (lab, NcValues::Int(vec![i * 10])),
                (flag, NcValues::Byte(vec![(i % 2) as i8])),
            ])
            .unwrap();
        }
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.numrecs, 5);
        assert_eq!(
            back.var_by_name("label")
                .unwrap()
                .data
                .as_i32()
                .unwrap()
                .len(),
            5
        );
    }

    #[test]
    fn streamed_encoding_equals_the_in_memory_one() {
        // Slabs larger and smaller than the staging buffer, an odd-sized
        // fixed variable, padded records; the sink sees it in many pieces.
        struct Pieces(Vec<u8>, usize);
        impl std::io::Write for Pieces {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut f = NcFile::new();
        let t = f.add_record_dim("tile").unwrap();
        let p = f.add_dim("pixel", 100_003);
        let q = f.add_dim("odd", STAGE_BYTES + 5);
        let big = f.add_var("big", NcType::Float, vec![t, p]).unwrap();
        let flag = f.add_var("flag", NcType::Byte, vec![t]).unwrap();
        let fixed = f.add_var("fixed", NcType::Byte, vec![q]).unwrap();
        f.put_values(
            fixed,
            NcValues::Byte((0..STAGE_BYTES + 5).map(|i| i as i8).collect()),
        )
        .unwrap();
        for r in 0..3 {
            let slab = (0..100_003).map(|i| (i * (r + 1)) as f32 * 0.5).collect();
            f.append_record(vec![
                (big, NcValues::Float(slab)),
                (flag, NcValues::Byte(vec![r as i8])),
            ])
            .unwrap();
        }
        let bytes = f.encode().unwrap();
        assert_eq!(bytes.capacity(), bytes.len(), "encode pre-sizes exactly");
        let mut sink = Pieces(Vec::new(), 0);
        f.encode_into(&mut sink).unwrap();
        assert_eq!(sink.0, bytes);
        assert!(sink.1 > 4, "streamed in pieces, not whole");
        assert_eq!(NcFile::decode(&bytes).unwrap(), f);

        // Validation failures are reported before anything is written.
        f.vars[big.0].data = NcValues::Float(vec![1.0]);
        let mut sink = Pieces(Vec::new(), 0);
        let err = f.encode_into(&mut sink).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(sink.0.is_empty());
    }

    #[test]
    fn record_round_trip_single_var_packed() {
        // Single record variable: records are packed with no padding even
        // when a record is not a multiple of 4 bytes (3 × i8 here).
        let mut f = NcFile::new();
        let t = f.add_record_dim("t").unwrap();
        let c = f.add_dim("c", 3);
        let v = f.add_var("v", NcType::Byte, vec![t, c]).unwrap();
        for i in 0..4i8 {
            f.append_record(vec![(v, NcValues::Byte(vec![i, i + 1, i + 2]))])
                .unwrap();
        }
        let bytes = f.encode().unwrap();
        let back = NcFile::decode(&bytes).unwrap();
        assert_eq!(back, f);
        // Data section is exactly 12 bytes (no padding) after the header.
        let header = bytes.len() - 12;
        assert_eq!(&bytes[header..], &[0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5]);
    }

    #[test]
    fn empty_file_round_trip() {
        let f = NcFile::new();
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn all_types_round_trip() {
        let mut f = NcFile::new();
        let n = f.add_dim("n", 2);
        let specs: Vec<(&str, NcValues)> = vec![
            ("b", NcValues::Byte(vec![-1, 2])),
            ("c", NcValues::Char(vec![b'h', b'i'])),
            ("s", NcValues::Short(vec![-300, 300])),
            ("i", NcValues::Int(vec![-70000, 70000])),
            ("f", NcValues::Float(vec![1.5, -2.5])),
            ("d", NcValues::Double(vec![1e-300, 1e300])),
        ];
        for (name, vals) in &specs {
            let v = f.add_var(*name, vals.nc_type(), vec![n]).unwrap();
            f.put_values(v, vals.clone()).unwrap();
        }
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(NcFile::decode(b"NOTCDF"), Err(NcError::BadMagic));
        assert_eq!(NcFile::decode(b"CDF\x05"), Err(NcError::BadVersion(5)));
        assert_eq!(NcFile::decode(b"CD"), Err(NcError::Truncated));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = sample().encode().unwrap();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(NcFile::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn encode_validates_data_length() {
        let mut f = NcFile::new();
        let x = f.add_dim("x", 3);
        let v = f.add_var("v", NcType::Int, vec![x]).unwrap();
        // Bypass put_values to plant bad data.
        f.vars[v.0].data = NcValues::Int(vec![1]);
        assert_eq!(
            f.encode().unwrap_err(),
            NcError::LengthMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn char_attr_padding_round_trips() {
        // Names/values with every padding residue.
        for len in 1..9 {
            let mut f = NcFile::new();
            let text: String = "x".repeat(len);
            f.add_global_attr(text.clone(), NcValues::text(&text));
            let back = NcFile::decode(&f.encode().unwrap()).unwrap();
            assert_eq!(back.gatts[0].name, text);
            assert_eq!(back.gatts[0].values.as_text(), Some(text.as_str()));
        }
    }

    #[test]
    fn scalar_variable_round_trips() {
        let mut f = NcFile::new();
        let v = f.add_var("pi", NcType::Double, vec![]).unwrap();
        f.put_values(v, NcValues::Double(vec![std::f64::consts::PI]))
            .unwrap();
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(
            back.var_by_name("pi").unwrap().data.as_f64().unwrap()[0],
            std::f64::consts::PI
        );
    }
}
