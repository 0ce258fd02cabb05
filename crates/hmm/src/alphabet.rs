//! The 29-symbol amino-acid alphabet of the paper (Fig. 6).
//!
//! HMMER 3.0 digitizes protein residues into small integer codes. The paper's
//! residue-packing scheme (§III-A, Fig. 6) relies on every code fitting in
//! 5 bits: 20 standard amino acids, 6 degenerate symbols (`B J Z O U X`), and
//! 3 gap/terminator symbols (`-`, `*`, `~`), i.e. codes `0..=28`. Code `31`
//! ([`PAD_CODE`]) is reserved as the packed-stream terminator flag.

/// Number of standard amino acids.
pub const N_STANDARD: usize = 20;
/// Number of degenerate residue symbols (`B J Z O U X`).
pub const N_DEGENERATE: usize = 6;
/// Number of gap/terminator symbols (`-`, `*`, `~`).
pub const N_GAP: usize = 3;
/// Total number of real alphabet symbols (codes `0..N_SYMBOLS`).
pub const N_SYMBOLS: usize = N_STANDARD + N_DEGENERATE + N_GAP; // 29
/// Size of the score tables indexed by residue code. Covers every 5-bit
/// pattern so a packed residue can index a table without bounds remapping.
pub const N_CODES: usize = 32;
/// Reserved 5-bit pad/terminator code appended to packed residue words
/// (drawn red in Fig. 6). Never emitted by a real sequence.
pub const PAD_CODE: u8 = 31;

/// Canonical one-letter symbols in code order.
///
/// `0..=19` standard amino acids (alphabetical by letter, the Easel order),
/// `20..=25` degenerate, `26..=28` gap-like.
pub const SYMBOLS: [char; N_SYMBOLS] = [
    'A', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'K', 'L', //
    'M', 'N', 'P', 'Q', 'R', 'S', 'T', 'V', 'W', 'Y', //
    'B', 'J', 'Z', 'O', 'U', 'X', //
    '-', '*', '~',
];

/// Digitized residue code (`0..=28`, or [`PAD_CODE`] in packed streams).
pub type Residue = u8;

/// Background amino-acid frequencies (Swiss-Prot composition, the same
/// numbers HMMER's Easel library ships as `fq[]` in `esl_composition`).
/// Indexed by standard residue code; sums to 1.
pub const BACKGROUND_F: [f32; N_STANDARD] = [
    0.0787945, // A
    0.0151600, // C
    0.0535222, // D
    0.0668298, // E
    0.0397062, // F
    0.0695071, // G
    0.0229198, // H
    0.0590092, // I
    0.0594422, // K
    0.0963728, // L
    0.0237718, // M
    0.0414386, // N
    0.0482904, // P
    0.0395639, // Q
    0.0540978, // R
    0.0683364, // S
    0.0540687, // T
    0.0673417, // V
    0.0114135, // W
    0.0304133, // Y
];

/// Errors produced when digitizing text sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlphabetError {
    /// The character is not part of the 29-symbol alphabet.
    InvalidChar(char),
    /// A code outside `0..N_SYMBOLS` (and not [`PAD_CODE`]) was decoded.
    InvalidCode(u8),
}

impl std::fmt::Display for AlphabetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlphabetError::InvalidChar(c) => write!(f, "invalid residue character {c:?}"),
            AlphabetError::InvalidCode(x) => write!(f, "invalid residue code {x}"),
        }
    }
}

impl std::error::Error for AlphabetError {}

/// Low five bits of a [`BYTE_CLASS`] entry: the residue code, when the
/// byte is an alphabet symbol. An entry with no bit outside this mask is a
/// plain residue (standard or degenerate), so OR-ing the entries of a whole
/// line and testing `acc & !BYTE_CODE_MASK == 0` proves the line decoded
/// cleanly without a branch per byte.
pub const BYTE_CODE_MASK: u8 = 0x1f;
/// [`BYTE_CLASS`] bit: the byte is gap-like (`-`, `.`, `*`, `~`); its code
/// is still in the low bits.
pub const BYTE_GAP: u8 = 0x20;
/// [`BYTE_CLASS`] bit: the byte is ASCII whitespace, exactly the ASCII
/// subset of `char::is_whitespace` (tab, LF, VT, FF, CR, space).
pub const BYTE_SPACE: u8 = 0x40;
/// [`BYTE_CLASS`] bit: the byte is not in the alphabet. Every byte
/// `>= 0x80` is in this class: a non-ASCII character is never a residue,
/// and what it *is* (which `char`, Unicode whitespace or not) is for the
/// caller's text-level path to say.
pub const BYTE_INVALID: u8 = 0x80;

/// Byte → residue class: the one definition of the text alphabet, derived
/// from [`SYMBOLS`] (case-insensitive, `.` read as `-`). Every decoder in
/// the workspace ([`digitize`], [`digitize_seq`], the FASTA reader) looks
/// bytes up here.
pub const BYTE_CLASS: [u8; 256] = {
    let mut table = [BYTE_INVALID; 256];
    let mut code = 0;
    while code < N_SYMBOLS {
        let upper = SYMBOLS[code] as u8;
        let class = if code < N_STANDARD + N_DEGENERATE {
            code as u8
        } else {
            BYTE_GAP | code as u8
        };
        table[upper as usize] = class;
        table[upper.to_ascii_lowercase() as usize] = class;
        code += 1;
    }
    table[b'.' as usize] = table[b'-' as usize];
    let mut b = 0x09;
    while b <= 0x0d {
        table[b] = BYTE_SPACE;
        b += 1;
    }
    table[b' ' as usize] = BYTE_SPACE;
    table
};

/// Residue code → canonical ASCII byte: [`SYMBOLS`] as bytes, the inverse
/// of [`BYTE_CLASS`] on its residue and gap entries.
pub const CODE_BYTE: [u8; N_SYMBOLS] = {
    let mut table = [0u8; N_SYMBOLS];
    let mut code = 0;
    while code < N_SYMBOLS {
        table[code] = SYMBOLS[code] as u8;
        code += 1;
    }
    table
};

/// Translate `text` through [`BYTE_CLASS`] onto the end of `out` and return
/// the OR of the entries written. If the result has no bit outside
/// [`BYTE_CODE_MASK`], `out` grew by exactly the residue codes of `text`;
/// otherwise the caller truncates `out` back and takes its text-level path
/// to skip whitespace or name the offending character.
#[inline]
pub fn digitize_bytes_into(text: &[u8], out: &mut Vec<Residue>) -> u8 {
    let mut acc = 0u8;
    out.extend(text.iter().map(|&b| {
        let class = BYTE_CLASS[b as usize];
        acc |= class;
        class
    }));
    acc
}

/// Digitize one residue character (case-insensitive). `.` is treated as `-`.
pub fn digitize(c: char) -> Result<Residue, AlphabetError> {
    let class = if c.is_ascii() {
        BYTE_CLASS[c as usize]
    } else {
        BYTE_INVALID
    };
    if class & (BYTE_SPACE | BYTE_INVALID) != 0 {
        return Err(AlphabetError::InvalidChar(c));
    }
    Ok(class & BYTE_CODE_MASK)
}

/// Map a residue code back to its canonical character.
pub fn symbol(code: Residue) -> Result<char, AlphabetError> {
    CODE_BYTE
        .get(code as usize)
        .map(|&b| b as char)
        .ok_or(AlphabetError::InvalidCode(code))
}

/// Is this code one of the 20 standard amino acids?
#[inline]
pub fn is_standard(code: Residue) -> bool {
    (code as usize) < N_STANDARD
}

/// Is this code gap-like (`-`, `*`, `~`)?
#[inline]
pub fn is_gap(code: Residue) -> bool {
    (N_STANDARD + N_DEGENERATE..N_SYMBOLS).contains(&(code as usize))
}

/// Standard-residue membership of a degenerate code.
///
/// `B = {D,N}`, `J = {I,L}`, `Z = {E,Q}`, `O → K` (pyrrolysine),
/// `U → C` (selenocysteine), `X = all twenty`.
pub fn degenerate_members(code: Residue) -> &'static [Residue] {
    const D_N: [Residue; 2] = [2, 11]; // B
    const I_L: [Residue; 2] = [7, 9]; // J
    const E_Q: [Residue; 2] = [3, 13]; // Z
    const K_: [Residue; 1] = [8]; // O
    const C_: [Residue; 1] = [1]; // U
    const ALL: [Residue; 20] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
    ];
    match code as usize {
        20 => &D_N,
        21 => &I_L,
        22 => &E_Q,
        23 => &K_,
        24 => &C_,
        25 => &ALL,
        _ => &[],
    }
}

/// Expand a per-standard-residue score/probability table to all [`N_CODES`]
/// codes, filling degenerate codes with the background-weighted expectation
/// of their members and gap/pad codes with `fill`.
///
/// This mirrors HMMER's `esl_abc_FExpectScVec`: a degenerate residue scores
/// the *expected* score of its members under the background distribution.
#[allow(clippy::needless_range_loop)]
pub fn expand_scores(standard: &[f32; N_STANDARD], fill: f32) -> [f32; N_CODES] {
    let mut out = [fill; N_CODES];
    out[..N_STANDARD].copy_from_slice(standard);
    for code in N_STANDARD..N_STANDARD + N_DEGENERATE {
        let members = degenerate_members(code as Residue);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for &m in members {
            let w = BACKGROUND_F[m as usize] as f64;
            num += w * standard[m as usize] as f64;
            den += w;
        }
        out[code] = if den > 0.0 { (num / den) as f32 } else { fill };
    }
    out
}

/// Digitize a full text sequence, rejecting gap-like symbols (search tools
/// operate on unaligned sequences).
pub fn digitize_seq(text: &str) -> Result<Vec<Residue>, AlphabetError> {
    let mut bulk = Vec::new();
    if digitize_bytes_into(text.as_bytes(), &mut bulk) & !BYTE_CODE_MASK == 0 {
        return Ok(bulk);
    }
    // Whitespace, a gap or a foreign character somewhere: the char-level
    // walk skips the first and names the others.
    text.chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| {
            let code = digitize(c)?;
            if is_gap(code) {
                Err(AlphabetError::InvalidChar(c))
            } else {
                Ok(code)
            }
        })
        .collect()
}

/// Render a digital sequence back to text.
pub fn textize_seq(seq: &[Residue]) -> Result<String, AlphabetError> {
    seq.iter().map(|&r| symbol(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_sums_to_one() {
        let s: f32 = BACKGROUND_F.iter().sum();
        assert!((s - 1.0).abs() < 1e-4, "background sum {s}");
    }

    #[test]
    fn digitize_round_trip() {
        for (i, &c) in SYMBOLS.iter().enumerate() {
            assert_eq!(digitize(c).unwrap(), i as Residue);
            assert_eq!(symbol(i as Residue).unwrap(), c);
        }
    }

    #[test]
    fn lowercase_and_dot() {
        assert_eq!(digitize('a').unwrap(), 0);
        assert_eq!(digitize('y').unwrap(), 19);
        assert_eq!(digitize('.').unwrap(), digitize('-').unwrap());
    }

    /// The pre-table definition: uppercase, `.` as `-`, linear search of
    /// [`SYMBOLS`]. Kept as the oracle the table is checked against.
    fn digitize_by_search(c: char) -> Option<Residue> {
        let u = c.to_ascii_uppercase();
        let u = if u == '.' { '-' } else { u };
        SYMBOLS.iter().position(|&s| s == u).map(|i| i as Residue)
    }

    #[test]
    fn byte_table_agrees_with_symbol_search_on_every_byte() {
        for b in 0..=255u8 {
            let class = BYTE_CLASS[b as usize];
            if !b.is_ascii() {
                assert_eq!(class, BYTE_INVALID, "byte {b:#04x} must be rejected");
                continue;
            }
            let c = b as char;
            match digitize_by_search(c) {
                Some(code) => {
                    assert_eq!(class & BYTE_CODE_MASK, code, "byte {b:#04x}");
                    assert_eq!(class & BYTE_GAP != 0, is_gap(code), "byte {b:#04x}");
                    assert_eq!(class & (BYTE_SPACE | BYTE_INVALID), 0, "byte {b:#04x}");
                    assert_eq!(digitize(c), Ok(code));
                }
                None => {
                    let expect = if c.is_whitespace() {
                        BYTE_SPACE
                    } else {
                        BYTE_INVALID
                    };
                    assert_eq!(class, expect, "byte {b:#04x}");
                    assert_eq!(digitize(c), Err(AlphabetError::InvalidChar(c)));
                }
            }
        }
        for (code, &b) in CODE_BYTE.iter().enumerate() {
            assert_eq!(b as char, SYMBOLS[code]);
            assert_eq!(BYTE_CLASS[b as usize] & BYTE_CODE_MASK, code as u8);
        }
        for c in ['\u{a0}', '\u{e9}', '\u{2028}', '\u{1f600}'] {
            assert_eq!(digitize(c), Err(AlphabetError::InvalidChar(c)));
        }
    }

    #[test]
    fn bulk_digitize_flags_anything_but_plain_residues() {
        let mut out = vec![7];
        assert_eq!(digitize_bytes_into(b"acXy", &mut out) & !BYTE_CODE_MASK, 0);
        assert_eq!(out, vec![7, 0, 1, 25, 19]);
        for dirty in ["AC DE", "AC-DE", "AC1DE", "AC\u{e9}DE", "AC\tDE"] {
            let acc = digitize_bytes_into(dirty.as_bytes(), &mut Vec::new());
            assert_ne!(acc & !BYTE_CODE_MASK, 0, "{dirty:?}");
        }
    }

    #[test]
    fn invalid_char_rejected() {
        assert!(digitize('1').is_err());
        assert!(digitize('!').is_err());
    }

    #[test]
    fn class_predicates_partition() {
        // Standard and gap codes are disjoint; the codes in neither are
        // the degenerate symbols `B J Z O U X`.
        for code in 0..N_SYMBOLS as Residue {
            assert!(!(is_standard(code) && is_gap(code)), "code {code}");
            let degenerate = !is_standard(code) && !is_gap(code);
            assert_eq!(
                degenerate,
                "BJZOUX".contains(symbol(code).unwrap()),
                "code {code}"
            );
        }
        assert!(!is_standard(PAD_CODE) && !is_gap(PAD_CODE));
    }

    #[test]
    fn all_codes_fit_five_bits() {
        // Compile-time facts, asserted dynamically so a future edit that
        // grows the alphabet past 5 bits fails loudly here.
        let n = SYMBOLS.len();
        assert!(n <= 29, "alphabet grew past the packing budget: {n}");
        let pad = PAD_CODE as usize;
        assert!(pad < 32 && pad >= n);
    }

    #[test]
    fn degenerate_members_are_standard() {
        for code in N_STANDARD..N_STANDARD + N_DEGENERATE {
            let members = degenerate_members(code as Residue);
            assert!(!members.is_empty(), "code {code} has no members");
            assert!(members.iter().all(|&m| is_standard(m)));
        }
        assert_eq!(degenerate_members(25).len(), 20); // X
    }

    #[test]
    fn expand_scores_x_is_background_mean() {
        let mut table = [0.0f32; N_STANDARD];
        for (i, t) in table.iter_mut().enumerate() {
            *t = i as f32;
        }
        let full = expand_scores(&table, -99.0);
        let mean: f32 = (0..N_STANDARD).map(|i| BACKGROUND_F[i] * table[i]).sum();
        assert!((full[25] - mean).abs() < 1e-4);
        assert_eq!(full[26], -99.0);
        assert_eq!(full[31], -99.0);
    }

    #[test]
    fn digitize_seq_rejects_gaps() {
        assert!(digitize_seq("ACDE-FG").is_err());
        let d = digitize_seq("acd efg").unwrap();
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        // Unicode whitespace is skipped, any other foreign character named.
        assert_eq!(digitize_seq("ac\u{2028}d\u{a0}").unwrap(), vec![0, 1, 2]);
        assert_eq!(
            digitize_seq("ac\u{e9}d"),
            Err(AlphabetError::InvalidChar('\u{e9}'))
        );
        assert_eq!(digitize_seq("ac*"), Err(AlphabetError::InvalidChar('*')));
    }

    #[test]
    fn textize_round_trip() {
        let d = digitize_seq("MKVLAYXZB").unwrap();
        assert_eq!(textize_seq(&d).unwrap(), "MKVLAYXZB");
    }
}
