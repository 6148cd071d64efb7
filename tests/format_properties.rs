//! Property-based tests (proptest) of the data-format substrates: the
//! NetCDF-3 classic codec, the EOGR granule container, the YAML-subset
//! parser and the JSON parser's nesting bound. These are the invariants the pipeline's integrity rests on:
//! whatever is written can be read back, byte-identically interpreted.

use eoml::config::parse_yaml;
use eoml::journal::JournalEvent;
use eoml::modis::container::{Container, Dataset, DatasetData};
use eoml::ncdf::{NcFile, NcType, NcValues};
use proptest::prelude::*;

// ------------------------------------------------------------- strategies

fn nc_values(t: NcType, n: usize) -> BoxedStrategy<NcValues> {
    match t {
        NcType::Byte => proptest::collection::vec(any::<i8>(), n)
            .prop_map(NcValues::Byte)
            .boxed(),
        NcType::Char => proptest::collection::vec(any::<u8>(), n)
            .prop_map(NcValues::Char)
            .boxed(),
        NcType::Short => proptest::collection::vec(any::<i16>(), n)
            .prop_map(NcValues::Short)
            .boxed(),
        NcType::Int => proptest::collection::vec(any::<i32>(), n)
            .prop_map(NcValues::Int)
            .boxed(),
        NcType::Float => proptest::collection::vec(
            prop_oneof![any::<i16>().prop_map(|v| v as f32), Just(0.0f32)],
            n,
        )
        .prop_map(NcValues::Float)
        .boxed(),
        NcType::Double => proptest::collection::vec(any::<i32>().prop_map(|v| v as f64), n)
            .prop_map(NcValues::Double)
            .boxed(),
    }
}

fn nc_type() -> impl Strategy<Value = NcType> {
    prop_oneof![
        Just(NcType::Byte),
        Just(NcType::Char),
        Just(NcType::Short),
        Just(NcType::Int),
        Just(NcType::Float),
        Just(NcType::Double),
    ]
}

prop_compose! {
    fn nc_file()(
        dim_lens in proptest::collection::vec(1usize..5, 1..4),
        has_record in any::<bool>(),
        numrecs in 0usize..4,
        var_specs in proptest::collection::vec((nc_type(), 0usize..3usize, any::<bool>()), 0..5),
        attr_count in 0usize..3,
    )(
        // Second stage: build the file and generate matching data.
        file in {
            let mut f = NcFile::new();
            let mut dims = Vec::new();
            for (i, &len) in dim_lens.iter().enumerate() {
                dims.push(f.add_dim(format!("d{i}"), len));
            }
            let rec = if has_record {
                Some(f.add_record_dim("rec").expect("single record dim"))
            } else {
                None
            };
            for _ in 0..attr_count {
                f.add_global_attr(format!("a{}", f.gatts.len()), NcValues::text("v"));
            }
            let mut strategies: Vec<BoxedStrategy<NcValues>> = Vec::new();
            let mut placed: Vec<(eoml::ncdf::VarId, bool)> = Vec::new();
            for (vi, (t, rank, wants_record)) in var_specs.iter().enumerate() {
                let rank = (*rank).min(dims.len());
                let mut shape: Vec<eoml::ncdf::DimId> = dims[..rank].to_vec();
                let is_rec = *wants_record && rec.is_some();
                if is_rec {
                    shape.insert(0, rec.expect("checked"));
                }
                let v = f
                    .add_var(format!("v{vi}"), *t, shape)
                    .expect("valid var");
                let slab = f.slab_len(v);
                let total = if is_rec { slab * numrecs } else { slab };
                strategies.push(nc_values(*t, total));
                placed.push((v, is_rec));
            }
            let numrecs = if has_record { numrecs } else { 0 };
            (Just((f, placed, numrecs)), strategies).prop_map(|((mut f, placed, numrecs), data)| {
                for ((v, is_rec), values) in placed.into_iter().zip(data) {
                    if is_rec {
                        f.vars[v.0].data = values;
                    } else {
                        f.put_values(v, values).expect("matching data");
                    }
                }
                f.numrecs = numrecs;
                f
            })
        }
    ) -> NcFile {
        file
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn netcdf_round_trips(file in nc_file()) {
        let bytes = file.encode().expect("encodable");
        let back = NcFile::decode(&bytes).expect("decodable");
        prop_assert_eq!(back, file);
    }

    #[test]
    fn netcdf_decode_never_panics_on_mutations(
        file in nc_file(),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in any::<u8>(),
    ) {
        let mut bytes = file.encode().expect("encodable");
        if !bytes.is_empty() {
            let i = flip_at.index(bytes.len());
            bytes[i] ^= flip_bits;
            // Must either decode or return an error — never panic/hang.
            let _ = NcFile::decode(&bytes);
        }
    }
}

// ------------------------------------------------------ container properties

fn dataset_data() -> impl Strategy<Value = DatasetData> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(DatasetData::U8),
        proptest::collection::vec(any::<i32>(), 0..32).prop_map(DatasetData::I32),
        proptest::collection::vec(any::<i32>().prop_map(|v| v as f32), 0..32)
            .prop_map(DatasetData::F32),
    ]
}

prop_compose! {
    fn container()(
        attrs in proptest::collection::vec(("[a-z]{1,8}", "[ -~]{0,16}"), 0..4),
        datasets in proptest::collection::vec(("[a-z_]{1,12}", dataset_data()), 0..5),
    ) -> Container {
        let mut c = Container::new();
        for (k, v) in attrs {
            c.attrs.insert(k, v);
        }
        for (i, (name, data)) in datasets.into_iter().enumerate() {
            let len = data.len() as u32;
            c.datasets.push(Dataset::new(format!("{name}{i}"), vec![len], data));
        }
        c
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn container_round_trips(c in container()) {
        let back = Container::decode(&c.encode()).expect("decodable");
        prop_assert_eq!(back, c);
    }

    #[test]
    fn container_detects_any_payload_corruption(
        c in container(),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
    ) {
        let bytes = c.encode();
        if !bytes.is_empty() {
            let mut corrupted = bytes.clone();
            let i = flip_at.index(bytes.len());
            corrupted[i] ^= flip_bits;
            // Either it fails to decode (usually checksum/structure), or —
            // if the flip landed in an attribute or name — the decoded
            // value differs from the original. It must never silently
            // produce identical content from different bytes.
            match Container::decode(&corrupted) {
                Err(_) => {}
                Ok(back) => prop_assert_ne!(back, c),
            }
        }
    }
}

// ----------------------------------------------------------- yaml properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn yaml_parser_never_panics(src in "[ -~\n]{0,400}") {
        let _ = parse_yaml(&src);
    }

    #[test]
    fn yaml_flat_map_round_trips(
        entries in proptest::collection::vec(("[a-z][a-z0-9_]{0,10}", -1000i64..1000), 1..8)
    ) {
        // Deduplicate keys (duplicates are a parse error by design).
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<_> = entries.into_iter().filter(|(k, _)| seen.insert(k.clone())).collect();
        let src: String = entries
            .iter()
            .map(|(k, v)| format!("{k}: {v}\n"))
            .collect();
        let doc = parse_yaml(&src).expect("valid document");
        for (k, v) in &entries {
            prop_assert_eq!(doc.get(k).and_then(|x| x.as_i64()), Some(*v));
        }
    }

    #[test]
    fn yaml_quoted_strings_round_trip(s in "[ -~]{0,30}") {
        // Escape single quotes by doubling them (YAML single-quote rule).
        let quoted = format!("key: '{}'\n", s.replace('\'', "''"));
        let doc = parse_yaml(&quoted).expect("valid document");
        prop_assert_eq!(doc.get("key").and_then(|v| v.as_str()), Some(s.as_str()));
    }
}

// ------------------------------------------------------------------ JSON

/// The JSON parser bounds nesting at 128 levels, as upstream serde_json
/// does: journal frames, run archives and ops logs feed it file bytes, and a
/// file of 50 000 `[` is an error, not a stack overflow.
#[test]
fn json_nesting_is_bounded() {
    let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str(&arrays(128)).is_ok());
    let objects = format!("{}1{}", r#"{"a":"#.repeat(128), "}".repeat(128));
    assert!(serde_json::from_str(&objects).is_ok());
    assert!(serde_json::from_str(&arrays(129)).is_err());
    let hostile = "[".repeat(50_000);
    let err = serde_json::from_str(&hostile).unwrap_err().to_string();
    assert_eq!(err, "recursion limit exceeded at byte 128");
    let err = JournalEvent::decode(hostile.as_bytes()).unwrap_err();
    assert!(err.contains("recursion limit exceeded"), "{err}");
}
