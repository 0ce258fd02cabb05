//! Differential tests for the rebuilt loader: [`DiskDb::from_bytes`],
//! [`DiskDb::load`] and the streaming parser behind both, fed a few bytes
//! per read, must return the same whole `Result` (variant, fields,
//! message, and every field of the loaded database, its blocks flattened
//! back into one word image) as the loader they replaced, which is kept
//! here verbatim as the oracle. The inputs are the corruption strategies
//! of `tests/diskdb_corruption.rs` plus *re-sealed* files: one or two
//! bytes edited and the checksums repaired, which is the only way past the
//! file hash to the structural, per-residue and content-hash checks, and
//! so the only way to exercise the order in which they are reported.
//!
//! One difference is intended and checked as such: a META sequence count
//! that the INDEX and NAMES sections cannot hold is now refused before
//! anything is allocated for it ([`is_count_guard`]).

use super::tests::{flat_image, image, reseal, reseal_trailer, section_span, TABLE_AT};
use super::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `DiskDb::from_bytes` as of be2cae8, body unchanged but for the last
/// statement, which returns the loaded fields as a [`Loaded`] tuple.
fn from_bytes_at_be2cae8(bytes: &[u8]) -> Result<Loaded, DbFormatError> {
    // Trailer first: the whole-file hash covers header and table too,
    // so a flip anywhere (including inside the CRCs themselves) is
    // caught before any field is trusted. Magic/version are checked
    // before the hash so a wrong-format or wrong-version file gets
    // its specific diagnostic rather than a generic hash mismatch.
    let mut c = Cursor::new(bytes);
    let magic = c.take(8)?;
    if magic != DISKDB_MAGIC {
        return Err(DbFormatError::BadMagic);
    }
    let version = c.u32()?;
    if version != DISKDB_VERSION {
        return Err(DbFormatError::Version { found: version });
    }
    if bytes.len() < 8 {
        return Err(DbFormatError::Truncated {
            needed: 8,
            have: bytes.len(),
        });
    }
    let body_len = bytes.len() - 8;
    let expected = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
    let found = fnv1a(&bytes[..body_len]);
    if expected != found {
        return Err(DbFormatError::FileHash { expected, found });
    }
    let body = &bytes[..body_len];
    let mut c = Cursor::new(body);
    c.take(8)?; // magic, already checked
    c.u32()?; // version, already checked
    let n_sections = c.u32()? as usize;
    if n_sections != SECTION_IDS.len() {
        return Err(DbFormatError::Layout(format!(
            "expected {} sections, header says {n_sections}",
            SECTION_IDS.len()
        )));
    }
    let reserved = c.u32()?;
    if reserved != 0 {
        return Err(DbFormatError::Layout(format!(
            "reserved field is {reserved:#x}, expected 0"
        )));
    }
    let logical_hash = c.u64()?;
    let mut table = Vec::with_capacity(n_sections);
    for (i, &id) in SECTION_IDS.iter().enumerate() {
        let found_id = c.u32()?;
        if found_id != id {
            return Err(DbFormatError::Layout(format!(
                "section {i} has id {found_id}, expected {id} ({})",
                SECTION_NAMES[i]
            )));
        }
        let len = c.u64()?;
        let crc = c.u32()?;
        if len > body.len() as u64 {
            return Err(DbFormatError::Layout(format!(
                "section {} claims {len} bytes in a {}-byte file",
                SECTION_NAMES[i],
                bytes.len()
            )));
        }
        table.push((len as usize, crc));
    }
    let payload_total: usize = table.iter().map(|&(len, _)| len).sum();
    let have = body.len() - c.pos;
    if have != payload_total {
        return Err(DbFormatError::Layout(format!(
            "section table claims {payload_total} payload bytes, file holds {have}"
        )));
    }
    let mut sections: Vec<&[u8]> = Vec::with_capacity(n_sections);
    for (i, &(len, crc)) in table.iter().enumerate() {
        let s = c.take(len)?;
        if crc32(s) != crc {
            return Err(DbFormatError::SectionCrc {
                section: SECTION_NAMES[i],
            });
        }
        sections.push(s);
    }

    // META
    let mut m = Cursor::new(sections[0]);
    let db_name = m.str16()?;
    let n_seqs = m.u32()? as usize;
    let total_residues = m.u64()?;
    m.end("META")?;

    // NAMES
    let mut n = Cursor::new(sections[1]);
    let mut headers = Vec::with_capacity(n_seqs);
    for _ in 0..n_seqs {
        let name = n.str16()?;
        let desc = n.str16()?;
        headers.push((name, desc));
    }
    n.end("NAMES")?;

    // INDEX
    let mut ix = Cursor::new(sections[2]);
    let mut lengths = Vec::with_capacity(n_seqs);
    let mut offsets = Vec::with_capacity(n_seqs);
    for _ in 0..n_seqs {
        lengths.push(ix.u32()?);
        offsets.push(ix.u32()?);
    }
    ix.end("INDEX")?;

    // WORDS
    let mut w = Cursor::new(sections[3]);
    let n_words = w.u32()? as usize;
    if sections[3].len() != 4 + n_words * 4 {
        return Err(DbFormatError::Corrupt(format!(
            "WORDS claims {n_words} words but section holds {} bytes",
            sections[3].len()
        )));
    }
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(w.u32()?);
    }

    // Cross-checks: offsets/lengths must tile the word buffer exactly
    // in database order, and the residue total must match META.
    let mut expect_off = 0u64;
    let mut residue_total = 0u64;
    for (i, (&len, &off)) in lengths.iter().zip(&offsets).enumerate() {
        if off as u64 != expect_off {
            return Err(DbFormatError::Corrupt(format!(
                "sequence {i} at word offset {off}, expected {expect_off}"
            )));
        }
        let seq_words = (len as u64).div_ceil(RESIDUES_PER_WORD as u64).max(1);
        expect_off += seq_words;
        residue_total += len as u64;
    }
    if expect_off != words.len() as u64 {
        return Err(DbFormatError::Corrupt(format!(
            "index tiles {expect_off} words, WORDS holds {}",
            words.len()
        )));
    }
    if residue_total != total_residues {
        return Err(DbFormatError::Corrupt(format!(
            "META says {total_residues} residues, index sums to {residue_total}"
        )));
    }

    // LENBINS
    let mut lb = Cursor::new(sections[4]);
    let n_bins = lb.u32()? as usize;
    let mut bins = Vec::with_capacity(n_bins.min(64));
    for _ in 0..n_bins {
        bins.push(LengthBin {
            min_len: lb.u32()?,
            max_len: lb.u32()?,
            count: lb.u32()?,
        });
    }
    lb.end("LENBINS")?;
    let bin_total: u64 = bins.iter().map(|b| b.count as u64).sum();
    if bin_total != n_seqs as u64 {
        return Err(DbFormatError::Corrupt(format!(
            "length bins cover {bin_total} sequences of {n_seqs}"
        )));
    }

    let packed = PackedDb {
        words,
        offsets,
        lengths,
    };
    // Validate residue codes: real slots must be in-alphabet, pad
    // slots must be exactly PAD_CODE. Guarantees downstream kernels
    // never see a code the score tables were not built for. The same
    // decode feeds the content hash, through one reused buffer, which
    // ties the header's logical hash to the payload: the recorded
    // identity is recomputed, not trusted.
    let view = packed.view();
    let mut content = ContentHasher::new(&db_name);
    let mut residues = Vec::new();
    for (seqid, (name, desc)) in headers.iter().enumerate() {
        residues.clear();
        view.unpack_seq_into(seqid, &mut residues);
        if let Some(slot) = residues.iter().position(|&c| c >= MAX_RESIDUE_CODE) {
            return Err(DbFormatError::Corrupt(format!(
                "sequence {seqid} residue {slot} has invalid code {}",
                residues[slot]
            )));
        }
        // The tiling check above put this sequence's words in range.
        let len = residues.len();
        let seq_words = len.div_ceil(RESIDUES_PER_WORD).max(1);
        let last = view.words[view.offsets[seqid] as usize + seq_words - 1];
        for slot in len..seq_words * RESIDUES_PER_WORD {
            let code = unpack_slot(last, slot % RESIDUES_PER_WORD);
            if code != PAD_CODE {
                return Err(DbFormatError::Corrupt(format!(
                    "sequence {seqid} pad slot {slot} holds code {code}"
                )));
            }
        }
        content.push_seq(name, desc, &residues);
    }
    let recomputed = content.finish();
    if recomputed != logical_hash {
        return Err(DbFormatError::Corrupt(format!(
            "header content hash {logical_hash:016x} but decoded content hashes to {recomputed:016x}"
        )));
    }

    Ok((
        db_name,
        (packed.words, packed.offsets, packed.lengths),
        headers,
        (total_residues, logical_hash),
        bins,
    ))
}

/// Every field of a loaded database, in a form that compares.
type Loaded = (
    String,
    (Vec<u32>, Vec<u32>, Vec<u32>),
    Vec<(String, String)>,
    (u64, u64),
    Vec<LengthBin>,
);

fn fields(db: DiskDb) -> Loaded {
    let image = flat_image(&db);
    (
        db.name,
        image,
        db.headers,
        (db.total_residues, db.content_hash),
        db.bins,
    )
}

/// `bytes` given to the loader a few bytes per `read`, with an
/// interruption before every other one.
struct Dribble<'a> {
    bytes: &'a [u8],
    calls: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(2) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = buf.len().min(1 + self.calls % 5).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// `DiskDb::load` of `bytes` written to a file of their own.
fn load_from_file(bytes: &[u8]) -> Result<DiskDb, DbFormatError> {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "h3w-differential-{}-{}.h3wdb",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let loaded = DiskDb::load(&path);
    std::fs::remove_file(&path).unwrap();
    loaded
}

/// The new refusal of a sequence count the sections cannot hold.
fn is_count_guard(e: &DbFormatError) -> bool {
    matches!(e, DbFormatError::Corrupt(m) if m.starts_with("META says") && m.contains(" sequences but "))
}

/// Load `bytes` with both loaders and require the same outcome, from a
/// slice, from a file, and from a reader that hands them over a few at a
/// time.
fn agree(bytes: &[u8]) -> Result<Loaded, DbFormatError> {
    let new = DiskDb::from_bytes(bytes).map(fields);
    assert_eq!(load_from_file(bytes).map(fields), new, "file");
    let dribble = Dribble { bytes, calls: 0 };
    let dribbled = DiskDb::read_from(dribble, bytes.len(), Path::new("dribble"));
    assert_eq!(dribbled.map(fields), new, "dribbled");
    match &new {
        Err(e) if is_count_guard(e) => {
            // The oracle reserves for the claimed count before it looks at
            // the sections, so only a modest claim is safe to hand it. It
            // must then refuse too, at the same place in the order: while
            // reading NAMES or INDEX.
            let DbFormatError::Corrupt(msg) = e else {
                unreachable!()
            };
            let claimed: u64 = msg.split(' ').nth(2).unwrap().parse().unwrap();
            if claimed <= 1 << 16 {
                match from_bytes_at_be2cae8(bytes) {
                    Err(DbFormatError::Truncated { .. }) => {}
                    Err(DbFormatError::Corrupt(old))
                        if old == "string is not UTF-8"
                            || old.starts_with("NAMES has")
                            || old.starts_with("INDEX has") => {}
                    other => panic!("count guard fired ({msg}) where the oracle said {other:?}"),
                }
            }
        }
        _ => assert_eq!(new, from_bytes_at_be2cae8(bytes)),
    }
    new
}

/// The diagnostic with every number blanked: which check fired.
fn shape(outcome: &Result<Loaded, DbFormatError>) -> String {
    let Err(e) = outcome else {
        return "ok".into();
    };
    let not_alnum = |c: char| !c.is_ascii_alphanumeric();
    let mut out = String::new();
    for token in e.to_string().split_inclusive(not_alnum) {
        let word = token.trim_end_matches(not_alnum);
        let numeric = word.contains(|c: char| c.is_ascii_digit());
        out.push_str(if numeric { "#" } else { word });
        out.push_str(&token[word.len()..]);
    }
    out
}

/// Same generator as `tests/diskdb_corruption.rs`, except that lengths
/// start at zero so empty sequences and exact multiples of six occur.
fn db_from(seqs: &[(usize, u8)]) -> SeqDb {
    let mut db = SeqDb::new("prop");
    for (i, &(len, seed)) in seqs.iter().enumerate() {
        db.seqs.push(DigitalSeq {
            name: format!("s{i}"),
            desc: match i % 3 {
                0 => format!("desc {i}"),
                _ => String::new(),
            },
            residues: (0..len)
                .map(|j| ((seed as usize + j * 7 + i) % 26) as u8)
                .collect(),
        });
    }
    db
}

/// A small file with every tail shape: partly padded, empty, an exact
/// multiple of six, and several words.
fn small_file() -> Vec<u8> {
    let mut db = SeqDb::new("small");
    for (name, text) in [
        ("s1", "MKVLAYWDE"),
        ("s2", ""),
        ("s3", "ACDEFG"),
        ("s4", "ACDEFGHIKLMNP"),
    ] {
        db.seqs.push(DigitalSeq::from_text(name, text).unwrap());
    }
    db.seqs[3].desc = "a description".into();
    image(&db)
}

#[test]
fn every_resealed_byte_edit_of_a_small_file_agrees_and_reaches_every_check() {
    let good = small_file();
    assert_eq!(shape(&agree(&good)), "ok");
    let mut reached = BTreeSet::new();
    for at in 0..good.len() - 8 {
        for mask in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[at] ^= mask;
            // Unsealed and half-sealed first: the checksums outrank
            // whatever the edit did to the structure.
            assert!(matches!(
                agree(&bad),
                Err(DbFormatError::FileHash { .. })
                    | Err(DbFormatError::BadMagic)
                    | Err(DbFormatError::Version { .. })
            ));
            reseal_trailer(&mut bad);
            reached.insert(shape(&agree(&bad)));
            reseal(&mut bad);
            reached.insert(shape(&agree(&bad)));
        }
    }
    for want in [
        "ok",
        "not a packed database (bad magic)",
        "packed db format version # (this build reads #)",
        "packed db section META failed its # check",
        "packed db section NAMES failed its # check",
        "packed db section INDEX failed its # check",
        "packed db section WORDS failed its # check",
        "packed db section LENBINS failed its # check",
        "packed db layout error: expected # sections, header says #",
        "packed db layout error: reserved field is #, expected #",
        "packed db layout error: section # has id #, expected # (WORDS)",
        "packed db layout error: section INDEX claims # bytes in a #-byte file",
        "packed db layout error: section table claims # payload bytes, file holds #",
        "packed db truncated: needed # bytes, have #",
        "packed db corrupt: string is not UTF-#",
        "packed db corrupt: META has # trailing bytes",
        "packed db corrupt: NAMES has # trailing bytes",
        "packed db corrupt: META says # sequences but INDEX holds # bytes, not #",
        "packed db corrupt: WORDS claims # words but section holds # bytes",
        "packed db corrupt: sequence # at word offset #, expected #",
        "packed db corrupt: index tiles # words, WORDS holds #",
        "packed db corrupt: META says # residues, index sums to #",
        "packed db corrupt: LENBINS has # trailing bytes",
        "packed db corrupt: length bins cover # sequences of #",
        "packed db corrupt: sequence # residue # has invalid code #",
        "packed db corrupt: sequence # pad slot # holds code #",
        "packed db corrupt: header content hash # but decoded content hashes to #",
    ] {
        assert!(
            reached.contains(want),
            "never reached {want:?}; reached {reached:#?}"
        );
    }
}

#[test]
fn two_resealed_defects_are_reported_in_the_same_order() {
    // Precedence, not just reachability: with two defects in one file the
    // loaders must pick the same one.
    let good = small_file();
    let body = good.len() - 8;
    let mut reached = BTreeSet::new();
    for mask in [0x01, 0x80] {
        for first in 12..body {
            for second in first + 1..body {
                let mut bad = good.clone();
                bad[first] ^= mask;
                bad[second] ^= mask;
                reseal(&mut bad);
                reached.insert(shape(&agree(&bad)));
            }
        }
    }
    assert!(reached.len() >= 20, "only reached {reached:#?}");
}

#[test]
fn truncation_at_every_cut_and_short_extensions_agree() {
    let good = small_file();
    for cut in 0..good.len() {
        assert!(agree(&good[..cut]).is_err(), "cut at {cut} accepted");
        // A cut that was sealed again is a well-formed trailer over a
        // table that no longer fits the file.
        let mut resealed = good[..cut].to_vec();
        reseal_trailer(&mut resealed);
        assert!(agree(&resealed).is_err(), "resealed cut at {cut} accepted");
    }
    let mut longer = good.clone();
    for extra in 1..=9u8 {
        longer.push(extra);
        assert!(agree(&longer).is_err());
        let mut resealed = longer.clone();
        reseal_trailer(&mut resealed);
        assert!(agree(&resealed).is_err());
    }
}

#[test]
fn section_lengths_moved_between_neighbours_agree() {
    // The table still adds up, so the layout check passes and the
    // sections are cut in the wrong places; CRCs repaired.
    let good = small_file();
    for i in 0..SECTION_IDS.len() - 1 {
        for moved in [1u64, 4, 8] {
            for (from, to) in [(i, i + 1), (i + 1, i)] {
                let mut bad = good.clone();
                let len_at = |k: usize| TABLE_AT + 16 * k + 4;
                let len = |b: &[u8], k: usize| {
                    u64::from_le_bytes(b[len_at(k)..len_at(k) + 8].try_into().unwrap())
                };
                let Some(shrunk) = len(&bad, from).checked_sub(moved) else {
                    continue;
                };
                let grown = len(&bad, to) + moved;
                bad[len_at(from)..len_at(from) + 8].copy_from_slice(&shrunk.to_le_bytes());
                bad[len_at(to)..len_at(to) + 8].copy_from_slice(&grown.to_le_bytes());
                assert!(section_span(&bad, WORDS).is_some());
                reseal(&mut bad);
                assert!(
                    agree(&bad).is_err(),
                    "{moved} bytes from section {from} to {to} accepted"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_files_agree(seqs in prop::collection::vec((0usize..120, 0u8..=255), 0..20)) {
        let db = db_from(&seqs);
        let loaded = agree(&image(&db));
        prop_assert!(loaded.is_ok(), "round trip rejected: {:?}", loaded);
    }

    #[test]
    fn single_bit_flips_agree(
        seqs in prop::collection::vec((0usize..60, 0u8..=255), 1..8),
        flip_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let mut bytes = image(&db_from(&seqs));
        let byte = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[byte] ^= 1 << bit;
        prop_assert!(agree(&bytes).is_err());
    }

    #[test]
    fn truncations_agree(
        seqs in prop::collection::vec((0usize..60, 0u8..=255), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = image(&db_from(&seqs));
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(agree(&bytes[..cut]).is_err());
    }

    #[test]
    fn arbitrary_garbage_agrees(
        bytes in prop::collection::vec(0u8..=255, 0..600),
        with_header in 0usize..3,
    ) {
        // Bare garbage stops at the magic; behind a valid magic and
        // version it reaches the file hash, and sealed, the table.
        let mut file = Vec::new();
        if with_header > 0 {
            file.extend_from_slice(&DISKDB_MAGIC);
            file.extend_from_slice(&DISKDB_VERSION.to_le_bytes());
        }
        file.extend_from_slice(&bytes);
        if with_header > 1 {
            file.extend_from_slice(&[0; 8]);
            reseal_trailer(&mut file);
        }
        let _ = agree(&file);
    }

    #[test]
    fn garbage_windows_in_a_sealed_file_agree(
        seqs in prop::collection::vec((0usize..60, 0u8..=255), 1..8),
        at_frac in 0.0f64..1.0,
        garbage in prop::collection::vec(0u8..=255, 1..24),
    ) {
        let mut bytes = image(&db_from(&seqs));
        let body = bytes.len() - 8;
        let at = 12 + ((body - 12) as f64 * at_frac) as usize;
        let end = (at + garbage.len()).min(body);
        bytes[at..end].copy_from_slice(&garbage[..end - at]);
        reseal(&mut bytes);
        let _ = agree(&bytes);
    }

    #[test]
    fn version_skew_agrees(found in 0u32..=u32::MAX) {
        let mut bytes = image(&db_from(&[(5, 1)]));
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        let outcome = agree(&bytes);
        prop_assert_eq!(outcome.is_ok(), found == DISKDB_VERSION);
    }

    #[test]
    fn resealed_edits_agree(
        seqs in prop::collection::vec((0usize..60, 0u8..=255), 1..8),
        edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 1..3),
        seal in 0usize..3,
    ) {
        let mut bytes = image(&db_from(&seqs));
        let body = bytes.len() - 8;
        for &(at_frac, mask) in &edits {
            bytes[12 + ((body - 12) as f64 * at_frac) as usize] ^= mask;
        }
        match seal {
            0 => reseal(&mut bytes),
            1 => reseal_trailer(&mut bytes),
            // CRCs repaired under a stale trailer: the file hash still
            // speaks first.
            _ => {
                let trailer = bytes[body..].to_vec();
                reseal(&mut bytes);
                bytes[body..].copy_from_slice(&trailer);
            }
        }
        let _ = agree(&bytes);
    }
}
