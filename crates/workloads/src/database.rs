//! Synthetic address book for the unindexed database query.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fixed record size in bytes (32 words — matches the database circuit).
pub const RECORD_BYTES: usize = 128;

/// Byte offset and length of the last-name field within a record.
pub const LAST_NAME_OFFSET: usize = 0;
/// Length of the last-name field.
pub const LAST_NAME_LEN: usize = 16;

const SYLLABLES: [&str; 20] = [
    "an", "ber", "chen", "dor", "el", "far", "gra", "hol", "ing", "jor", "kal", "lu", "mar", "nor",
    "ock", "per", "quin", "rossi", "sten", "tam",
];

/// One synthetic address record.
///
/// # Examples
///
/// ```
/// use ap_workloads::database::AddressBook;
///
/// let book = AddressBook::generate(42, 100);
/// assert_eq!(book.records(), 100);
/// assert!(book.expected_matches(book.query()) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct AddressBook {
    bytes: Vec<u8>,
    records: usize,
    query: String,
}

impl AddressBook {
    /// Generates `records` fixed-size address records from `seed`, plus a
    /// query last name guaranteed to appear at least once.
    ///
    /// Fields are written straight into the zeroed record bytes, so the
    /// NUL padding is already in place. Every field fits whole: names are at
    /// most three 5-byte syllables, numbers at most 5 digits.
    pub fn generate(seed: u64, records: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = vec![0u8; records * RECORD_BYTES];
        for (r, rec) in bytes.chunks_exact_mut(RECORD_BYTES).enumerate() {
            let extra = rng.random_range(0..2);
            Self::put_name(
                &mut rng,
                &mut rec[LAST_NAME_OFFSET..LAST_NAME_OFFSET + LAST_NAME_LEN],
                2 + extra,
            );
            Self::put_name(&mut rng, &mut rec[16..28], 2);
            // Street: "<number> <name> st".
            let street = &mut rec[28..52];
            let mut n = Self::put_decimal(street, rng.random_range(1..9999), 1);
            street[n] = b' ';
            n += 1 + Self::put_name(&mut rng, &mut street[n + 1..], 2);
            street[n..n + 3].copy_from_slice(b" st");
            Self::put_name(&mut rng, &mut rec[52..68], 3);
            Self::put_decimal(&mut rec[68..76], rng.random_range(10000..99999), 5);
            let phone = &mut rec[76..88];
            let n = Self::put_decimal(phone, rng.random_range(200..999), 3);
            phone[n] = b'-';
            Self::put_decimal(&mut phone[n + 1..], rng.random_range(0..9999), 4);
            // Remaining bytes stay as deterministic filler.
            for (i, slot) in rec.iter_mut().enumerate().skip(88) {
                *slot = (r as u8).wrapping_mul(31).wrapping_add(i as u8);
            }
        }
        let pick = rng.random_range(0..records);
        let field = &bytes[pick * RECORD_BYTES + LAST_NAME_OFFSET..][..LAST_NAME_LEN];
        let len = field.iter().position(|&b| b == 0).unwrap_or(LAST_NAME_LEN);
        let query = std::str::from_utf8(&field[..len]).expect("names are ASCII").to_string();
        AddressBook { bytes, records, query }
    }

    /// Writes `syllables` random syllables at the start of `dst`; returns
    /// the bytes written.
    fn put_name(rng: &mut StdRng, dst: &mut [u8], syllables: usize) -> usize {
        let mut n = 0;
        for _ in 0..syllables {
            let syllable = SYLLABLES[rng.random_range(0..SYLLABLES.len())].as_bytes();
            dst[n..n + syllable.len()].copy_from_slice(syllable);
            n += syllable.len();
        }
        n
    }

    /// Writes `v` in decimal, zero-padded to at least `width` digits, at the
    /// start of `dst`; returns the bytes written.
    fn put_decimal(dst: &mut [u8], mut v: u32, width: usize) -> usize {
        let n = (v.checked_ilog10().unwrap_or(0) as usize + 1).max(width);
        for slot in dst[..n].iter_mut().rev() {
            *slot = b'0' + (v % 10) as u8;
            v /= 10;
        }
        n
    }

    /// The raw serialized records.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of records.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The benchmark's query last name (guaranteed at least one match).
    pub fn query(&self) -> &str {
        &self.query
    }

    /// The last-name field of record `r` as stored (NUL padded).
    pub fn last_name_field(&self, r: usize) -> [u8; LAST_NAME_LEN] {
        let base = r * RECORD_BYTES + LAST_NAME_OFFSET;
        self.bytes[base..base + LAST_NAME_LEN].try_into().unwrap()
    }

    /// Reference answer: exact matches of `name` against the last-name field.
    pub fn expected_matches(&self, name: &str) -> usize {
        let mut field = [0u8; LAST_NAME_LEN];
        let b = name.as_bytes();
        let n = b.len().min(LAST_NAME_LEN);
        field[..n].copy_from_slice(&b[..n]);
        (0..self.records).filter(|&r| self.last_name_field(r) == field).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as first written, with a `String` and `format!` per
    /// field: [`AddressBook::generate`] must reproduce its books exactly.
    fn reference(seed: u64, records: usize) -> (Vec<u8>, String) {
        fn name(rng: &mut StdRng, syllables: usize) -> String {
            (0..syllables).map(|_| SYLLABLES[rng.random_range(0..SYLLABLES.len())]).collect()
        }
        fn put(dst: &mut [u8], s: &str, field: usize) {
            let n = s.len().min(field);
            dst[..n].copy_from_slice(&s.as_bytes()[..n]);
            dst[n..field].fill(0);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = vec![0u8; records * RECORD_BYTES];
        let mut names = Vec::with_capacity(records);
        for r in 0..records {
            let base = r * RECORD_BYTES;
            let extra = rng.random_range(0..2);
            let last = name(&mut rng, 2 + extra);
            put(&mut bytes[base + LAST_NAME_OFFSET..], &last, LAST_NAME_LEN);
            let first = name(&mut rng, 2);
            put(&mut bytes[base + 16..], &first, 12);
            let street = format!("{} {} st", rng.random_range(1..9999), name(&mut rng, 2));
            put(&mut bytes[base + 28..], &street, 24);
            let city = name(&mut rng, 3);
            put(&mut bytes[base + 52..], &city, 16);
            let zip = format!("{:05}", rng.random_range(10000..99999));
            put(&mut bytes[base + 68..], &zip, 8);
            let phone =
                format!("{:03}-{:04}", rng.random_range(200..999), rng.random_range(0..9999));
            put(&mut bytes[base + 76..], &phone, 12);
            for i in 88..RECORD_BYTES {
                bytes[base + i] = (r as u8).wrapping_mul(31).wrapping_add(i as u8);
            }
            names.push(last);
        }
        let query = names[rng.random_range(0..names.len())].clone();
        (bytes, query)
    }

    #[test]
    fn matches_the_formatting_reference() {
        for (seed, records) in [(0xDB5EED, 1000), (7, 50), (1, 1), (99, 4000)] {
            let book = AddressBook::generate(seed, records);
            let (bytes, query) = reference(seed, records);
            assert!(book.bytes() == bytes, "seed {seed}: record bytes differ");
            assert_eq!(book.query(), query, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = AddressBook::generate(7, 50);
        let b = AddressBook::generate(7, 50);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(a.query(), b.query());
    }

    #[test]
    fn different_seeds_differ() {
        let a = AddressBook::generate(1, 50);
        let b = AddressBook::generate(2, 50);
        assert_ne!(a.bytes(), b.bytes());
    }

    #[test]
    fn query_always_matches_at_least_once() {
        for seed in 0..20 {
            let book = AddressBook::generate(seed, 64);
            assert!(book.expected_matches(book.query()) >= 1, "seed {seed}");
        }
    }

    #[test]
    fn records_are_fixed_size_and_nul_padded() {
        let book = AddressBook::generate(3, 10);
        assert_eq!(book.bytes().len(), 10 * RECORD_BYTES);
        let f = book.last_name_field(0);
        // Name syllables are ASCII; padding is NUL.
        assert!(f.iter().any(|&c| c != 0));
        assert!(f.iter().all(|&c| c == 0 || c.is_ascii_lowercase()));
    }

    #[test]
    fn nonexistent_name_matches_zero() {
        let book = AddressBook::generate(3, 10);
        assert_eq!(book.expected_matches("zzzzzzzz"), 0);
    }
}
