//! In-memory model of a NetCDF classic file.

use crate::format;
use crate::format::NcError;

/// The six classic NetCDF external types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NcType {
    /// 8-bit signed (`NC_BYTE`, tag 1).
    Byte,
    /// 8-bit character data (`NC_CHAR`, tag 2).
    Char,
    /// 16-bit signed big-endian (`NC_SHORT`, tag 3).
    Short,
    /// 32-bit signed big-endian (`NC_INT`, tag 4).
    Int,
    /// IEEE-754 single (`NC_FLOAT`, tag 5).
    Float,
    /// IEEE-754 double (`NC_DOUBLE`, tag 6).
    Double,
}

impl NcType {
    /// On-disk tag.
    pub fn tag(self) -> u32 {
        match self {
            NcType::Byte => 1,
            NcType::Char => 2,
            NcType::Short => 3,
            NcType::Int => 4,
            NcType::Float => 5,
            NcType::Double => 6,
        }
    }

    /// Decode a tag.
    pub fn from_tag(tag: u32) -> Option<NcType> {
        Some(match tag {
            1 => NcType::Byte,
            2 => NcType::Char,
            3 => NcType::Short,
            4 => NcType::Int,
            5 => NcType::Float,
            6 => NcType::Double,
            _ => return None,
        })
    }

    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            NcType::Byte | NcType::Char => 1,
            NcType::Short => 2,
            NcType::Int | NcType::Float => 4,
            NcType::Double => 8,
        }
    }
}

/// Typed value array (attribute payloads and variable data).
#[derive(Debug, Clone, PartialEq)]
pub enum NcValues {
    /// `NC_BYTE` values.
    Byte(Vec<i8>),
    /// `NC_CHAR` values (raw bytes; usually ASCII text).
    Char(Vec<u8>),
    /// `NC_SHORT` values.
    Short(Vec<i16>),
    /// `NC_INT` values.
    Int(Vec<i32>),
    /// `NC_FLOAT` values.
    Float(Vec<f32>),
    /// `NC_DOUBLE` values.
    Double(Vec<f64>),
}

impl NcValues {
    /// Char values from a string.
    pub fn text(s: &str) -> Self {
        NcValues::Char(s.as_bytes().to_vec())
    }

    /// The external type of this payload.
    pub fn nc_type(&self) -> NcType {
        match self {
            NcValues::Byte(_) => NcType::Byte,
            NcValues::Char(_) => NcType::Char,
            NcValues::Short(_) => NcType::Short,
            NcValues::Int(_) => NcType::Int,
            NcValues::Float(_) => NcType::Float,
            NcValues::Double(_) => NcType::Double,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            NcValues::Byte(v) => v.len(),
            NcValues::Char(v) => v.len(),
            NcValues::Short(v) => v.len(),
            NcValues::Int(v) => v.len(),
            NcValues::Float(v) => v.len(),
            NcValues::Double(v) => v.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empty payload of a given type.
    pub fn empty(t: NcType) -> Self {
        match t {
            NcType::Byte => NcValues::Byte(Vec::new()),
            NcType::Char => NcValues::Char(Vec::new()),
            NcType::Short => NcValues::Short(Vec::new()),
            NcType::Int => NcValues::Int(Vec::new()),
            NcType::Float => NcValues::Float(Vec::new()),
            NcType::Double => NcValues::Double(Vec::new()),
        }
    }

    /// Borrow as `&[f32]` if this is a float payload.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            NcValues::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i32]` if this is an int payload.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            NcValues::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[f64]` if this is a double payload.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            NcValues::Double(v) => Some(v),
            _ => None,
        }
    }

    /// Interpret char data as UTF-8 text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            NcValues::Char(v) => std::str::from_utf8(v).ok(),
            _ => None,
        }
    }

    /// Append another payload of the same type (used when growing the
    /// record dimension).
    pub fn extend_from(&mut self, other: &NcValues) -> Result<(), NcError> {
        match (self, other) {
            (NcValues::Byte(a), NcValues::Byte(b)) => a.extend_from_slice(b),
            (NcValues::Char(a), NcValues::Char(b)) => a.extend_from_slice(b),
            (NcValues::Short(a), NcValues::Short(b)) => a.extend_from_slice(b),
            (NcValues::Int(a), NcValues::Int(b)) => a.extend_from_slice(b),
            (NcValues::Float(a), NcValues::Float(b)) => a.extend_from_slice(b),
            (NcValues::Double(a), NcValues::Double(b)) => a.extend_from_slice(b),
            _ => return Err(NcError::TypeMismatch),
        }
        Ok(())
    }
}

/// Index of a dimension within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimId(pub usize);

/// Index of a variable within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub usize);

/// Index of an attribute within a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrId(pub usize);

/// A named dimension; length 0 marks the (single) record dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct NcDim {
    /// Dimension name.
    pub name: String,
    /// Fixed length, or 0 for the record (unlimited) dimension.
    pub len: usize,
}

impl NcDim {
    /// Whether this is the record dimension.
    pub fn is_record(&self) -> bool {
        self.len == 0
    }
}

/// A named attribute with a typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct NcAttr {
    /// Attribute name.
    pub name: String,
    /// Payload.
    pub values: NcValues,
}

/// A variable: name, shape (dimension ids, outermost first), attributes,
/// type, and its in-memory data.
#[derive(Debug, Clone, PartialEq)]
pub struct NcVar {
    /// Variable name.
    pub name: String,
    /// Shape as dimension ids, outermost first. If the first is the record
    /// dimension the variable is a record variable.
    pub dims: Vec<DimId>,
    /// Per-variable attributes.
    pub attrs: Vec<NcAttr>,
    /// External type.
    pub nc_type: NcType,
    /// Data; for record variables, `numrecs` records' worth.
    pub data: NcValues,
}

/// An in-memory NetCDF classic dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NcFile {
    /// Dimensions in definition order.
    pub dims: Vec<NcDim>,
    /// Global attributes.
    pub gatts: Vec<NcAttr>,
    /// Variables in definition order.
    pub vars: Vec<NcVar>,
    /// Record count (length of the record dimension).
    pub numrecs: usize,
}

impl NcFile {
    /// Empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a fixed dimension; `len` must be > 0 (use
    /// [`add_record_dim`](Self::add_record_dim) for the unlimited one).
    pub fn add_dim(&mut self, name: impl Into<String>, len: usize) -> DimId {
        assert!(len > 0, "fixed dimensions must have nonzero length");
        self.dims.push(NcDim {
            name: name.into(),
            len,
        });
        DimId(self.dims.len() - 1)
    }

    /// Define the record (unlimited) dimension; only one is allowed.
    pub fn add_record_dim(&mut self, name: impl Into<String>) -> Result<DimId, NcError> {
        if self.dims.iter().any(NcDim::is_record) {
            return Err(NcError::MultipleRecordDims);
        }
        self.dims.push(NcDim {
            name: name.into(),
            len: 0,
        });
        Ok(DimId(self.dims.len() - 1))
    }

    /// The record dimension's id, if defined.
    pub fn record_dim(&self) -> Option<DimId> {
        self.dims.iter().position(NcDim::is_record).map(DimId)
    }

    /// Define a variable. The record dimension, if used, must be the first
    /// (outermost) dimension — a classic-format constraint.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        nc_type: NcType,
        dims: Vec<DimId>,
    ) -> Result<VarId, NcError> {
        for (i, d) in dims.iter().enumerate() {
            let dim = self.dims.get(d.0).ok_or(NcError::UnknownDim)?;
            if dim.is_record() && i != 0 {
                return Err(NcError::RecordDimNotFirst);
            }
        }
        self.vars.push(NcVar {
            name: name.into(),
            dims,
            attrs: Vec::new(),
            nc_type,
            data: NcValues::empty(nc_type),
        });
        Ok(VarId(self.vars.len() - 1))
    }

    /// Add a global attribute.
    pub fn add_global_attr(&mut self, name: impl Into<String>, values: NcValues) -> AttrId {
        self.gatts.push(NcAttr {
            name: name.into(),
            values,
        });
        AttrId(self.gatts.len() - 1)
    }

    /// Add an attribute to a variable.
    pub fn add_var_attr(
        &mut self,
        var: VarId,
        name: impl Into<String>,
        values: NcValues,
    ) -> Result<AttrId, NcError> {
        let v = self.vars.get_mut(var.0).ok_or(NcError::UnknownVar)?;
        v.attrs.push(NcAttr {
            name: name.into(),
            values,
        });
        Ok(AttrId(v.attrs.len() - 1))
    }

    /// Whether `var` has the record dimension as its first dimension.
    pub fn is_record_var(&self, var: VarId) -> bool {
        self.vars[var.0]
            .dims
            .first()
            .map(|d| self.dims[d.0].is_record())
            .unwrap_or(false)
    }

    /// Number of elements in one record of `var` (the product of its
    /// non-record dimension lengths), or the full element count for a
    /// fixed variable.
    pub fn slab_len(&self, var: VarId) -> usize {
        let v = &self.vars[var.0];
        v.dims
            .iter()
            .map(|d| self.dims[d.0].len)
            .filter(|&l| l > 0)
            .product::<usize>()
            .max(1)
    }

    /// Store data for a fixed-size variable; the payload type and length
    /// must match the declaration.
    pub fn put_values(&mut self, var: VarId, values: NcValues) -> Result<(), NcError> {
        if self.is_record_var(var) {
            return Err(NcError::RecordVarNeedsRecords);
        }
        let expect = self.slab_len(var);
        let v = self.vars.get_mut(var.0).ok_or(NcError::UnknownVar)?;
        if values.nc_type() != v.nc_type {
            return Err(NcError::TypeMismatch);
        }
        if values.len() != expect {
            return Err(NcError::LengthMismatch {
                expected: expect,
                actual: values.len(),
            });
        }
        v.data = values;
        Ok(())
    }

    /// Append one record to every record variable; `records` must supply
    /// `(VarId, values)` for each record variable exactly once, with each
    /// payload exactly one record long. Grows `numrecs` by one.
    pub fn append_record(&mut self, records: Vec<(VarId, NcValues)>) -> Result<(), NcError> {
        let record_vars: Vec<VarId> = (0..self.vars.len())
            .map(VarId)
            .filter(|&v| self.is_record_var(v))
            .collect();
        if records.len() != record_vars.len()
            || !record_vars
                .iter()
                .all(|rv| records.iter().any(|(v, _)| v == rv))
        {
            return Err(NcError::IncompleteRecord);
        }
        // Validate all before mutating any.
        for (var, values) in &records {
            let v = &self.vars[var.0];
            if values.nc_type() != v.nc_type {
                return Err(NcError::TypeMismatch);
            }
            let expect = self.slab_len(*var);
            if values.len() != expect {
                return Err(NcError::LengthMismatch {
                    expected: expect,
                    actual: values.len(),
                });
            }
        }
        for (var, values) in &records {
            let v = &mut self.vars[var.0];
            v.data.extend_from(values)?;
        }
        self.numrecs += 1;
        Ok(())
    }

    /// Find a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<&NcVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Find a variable id by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v.name == name).map(VarId)
    }

    /// Find a dimension by name.
    pub fn dim_by_name(&self, name: &str) -> Option<(DimId, &NcDim)> {
        self.dims
            .iter()
            .position(|d| d.name == name)
            .map(|i| (DimId(i), &self.dims[i]))
    }

    /// Find a global attribute by name.
    pub fn global_attr(&self, name: &str) -> Option<&NcAttr> {
        self.gatts.iter().find(|a| a.name == name)
    }

    /// Serialize to classic-format bytes (CDF-1, or CDF-2 when any data
    /// offset exceeds 2 GiB).
    pub fn encode(&self) -> Result<Vec<u8>, NcError> {
        format::encode(self)
    }

    /// Parse classic-format bytes (CDF-1 or CDF-2).
    pub fn decode(bytes: &[u8]) -> Result<NcFile, NcError> {
        format::decode(bytes)
    }

    /// Serialize straight into `sink` — the bytes [`encode`](Self::encode)
    /// returns, without ever holding the whole file. A file that fails
    /// validation is an `InvalidData` error.
    pub fn encode_into(&self, sink: &mut impl std::io::Write) -> std::io::Result<()> {
        format::encode_into(self, sink)
    }

    /// [`encode_into`](Self::encode_into) with the `float` record variable
    /// `var` holding no values: just before record `rec` of it is written,
    /// `fill(rec, record)` fills `record` (one record's values), so no more
    /// than one of its records is ever in memory. The bytes are those of
    /// `encode_into` on the file with the filled records as `var`'s values.
    pub fn encode_into_filling(
        &self,
        sink: &mut impl std::io::Write,
        var: VarId,
        record: &mut [f32],
        fill: &mut dyn FnMut(usize, &mut [f32]),
    ) -> std::io::Result<()> {
        format::encode_into_filling(self, sink, var, record, fill)
    }

    /// Encode and write to a file path (via a `.part` rename so monitors
    /// never observe a partial file).
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let part = path.with_extension("part.tmp");
        let written = std::fs::File::create(&part).and_then(|mut f| self.encode_into(&mut f));
        if written.is_err() {
            let _ = std::fs::remove_file(&part);
        }
        written?;
        std::fs::rename(&part, path)
    }

    /// Read and decode from a file path.
    pub fn read_from(path: impl AsRef<std::path::Path>) -> std::io::Result<NcFile> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_and_var_definition() {
        let mut f = NcFile::new();
        let x = f.add_dim("x", 4);
        let y = f.add_dim("y", 3);
        let v = f.add_var("field", NcType::Float, vec![y, x]).unwrap();
        assert_eq!(f.slab_len(v), 12);
        assert!(!f.is_record_var(v));
        assert_eq!(f.dim_by_name("x").unwrap().1.len, 4);
        assert!(f.dim_by_name("zz").is_none());
    }

    #[test]
    fn record_dim_rules() {
        let mut f = NcFile::new();
        let t = f.add_record_dim("time").unwrap();
        assert!(f.add_record_dim("time2").is_err());
        let x = f.add_dim("x", 2);
        // Record dim must be outermost.
        assert_eq!(
            f.add_var("bad", NcType::Int, vec![x, t]).unwrap_err(),
            NcError::RecordDimNotFirst
        );
        let v = f.add_var("good", NcType::Int, vec![t, x]).unwrap();
        assert!(f.is_record_var(v));
        assert_eq!(f.slab_len(v), 2);
    }

    #[test]
    fn put_values_validates() {
        let mut f = NcFile::new();
        let x = f.add_dim("x", 3);
        let v = f.add_var("v", NcType::Short, vec![x]).unwrap();
        assert_eq!(
            f.put_values(v, NcValues::Int(vec![1, 2, 3])).unwrap_err(),
            NcError::TypeMismatch
        );
        assert_eq!(
            f.put_values(v, NcValues::Short(vec![1, 2])).unwrap_err(),
            NcError::LengthMismatch {
                expected: 3,
                actual: 2
            }
        );
        f.put_values(v, NcValues::Short(vec![1, 2, 3])).unwrap();
    }

    #[test]
    fn append_record_grows_all_vars() {
        let mut f = NcFile::new();
        let t = f.add_record_dim("tile").unwrap();
        let b = f.add_dim("band", 2);
        let rad = f.add_var("rad", NcType::Float, vec![t, b]).unwrap();
        let label = f.add_var("label", NcType::Int, vec![t]).unwrap();
        f.append_record(vec![
            (rad, NcValues::Float(vec![1.0, 2.0])),
            (label, NcValues::Int(vec![7])),
        ])
        .unwrap();
        f.append_record(vec![
            (label, NcValues::Int(vec![9])),
            (rad, NcValues::Float(vec![3.0, 4.0])),
        ])
        .unwrap();
        assert_eq!(f.numrecs, 2);
        assert_eq!(f.vars[rad.0].data.as_f32().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.vars[label.0].data.as_i32().unwrap(), &[7, 9]);
    }

    #[test]
    fn append_record_requires_all_record_vars() {
        let mut f = NcFile::new();
        let t = f.add_record_dim("t").unwrap();
        let a = f.add_var("a", NcType::Int, vec![t]).unwrap();
        let _b = f.add_var("b", NcType::Int, vec![t]).unwrap();
        assert_eq!(
            f.append_record(vec![(a, NcValues::Int(vec![1]))])
                .unwrap_err(),
            NcError::IncompleteRecord
        );
        assert_eq!(f.numrecs, 0, "failed append must not mutate");
    }

    #[test]
    fn values_helpers() {
        let v = NcValues::text("hello");
        assert_eq!(v.as_text(), Some("hello"));
        assert_eq!(v.nc_type(), NcType::Char);
        assert_eq!(v.len(), 5);
        assert!(NcValues::empty(NcType::Double).is_empty());
        let mut a = NcValues::Int(vec![1]);
        a.extend_from(&NcValues::Int(vec![2])).unwrap();
        assert_eq!(a.as_i32().unwrap(), &[1, 2]);
        assert!(a.extend_from(&NcValues::Float(vec![1.0])).is_err());
    }

    #[test]
    fn file_path_round_trip() {
        let mut f = NcFile::new();
        let x = f.add_dim("x", 2);
        let v = f.add_var("v", NcType::Int, vec![x]).unwrap();
        f.put_values(v, NcValues::Int(vec![1, 2])).unwrap();
        let path = std::env::temp_dir().join(format!(
            "eoml-ncfile-{}-{}.nc",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        f.write_to(&path).unwrap();
        let back = NcFile::read_from(&path).unwrap();
        assert_eq!(back, f);
        assert!(NcFile::read_from("/no/such/file.nc").is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn type_tags_round_trip() {
        for t in [
            NcType::Byte,
            NcType::Char,
            NcType::Short,
            NcType::Int,
            NcType::Float,
            NcType::Double,
        ] {
            assert_eq!(NcType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(NcType::from_tag(0), None);
        assert_eq!(NcType::from_tag(7), None);
    }
}
