//! Seeded input generators. Every item is drawn from its own stream,
//! keyed by the run seed, the workload and the item's index, so the same
//! seed gives the same inputs however many items a run consumes.

/// SplitMix64: small, fast and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for item `index` of workload stream `tag` under `seed`.
    pub fn new(seed: u64, tag: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-scale, scale)`, rounded to f32 like every tensor the
    /// kernels produce.
    pub fn f32_sym(&mut self, scale: f64) -> f64 {
        (((self.unit() * 2.0 - 1.0) * scale) as f32) as f64
    }

    /// `n` token ids below `vocab`.
    pub fn tokens(&mut self, n: usize, vocab: usize) -> Vec<i64> {
        (0..n).map(|_| self.range(0, vocab - 1) as i64).collect()
    }
}

/// Value `index` of a stratified stream over `lo..=hi`: each block of
/// `hi - lo + 1` consecutive indices is a seeded permutation of the whole
/// range, so every run sees the same mix of sizes whatever its seed, and
/// the seed decides only their order. This keeps run-to-run differences
/// down to the system, not the draw.
pub fn stratified(seed: u64, tag: u64, index: u64, lo: usize, hi: usize) -> usize {
    let span = (hi - lo + 1) as u64;
    let mut r = Rng::new(seed, tag, index / span);
    let mut perm: Vec<usize> = (lo..=hi).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, r.range(0, i));
    }
    perm[(index % span) as usize]
}

const DECODE: u64 = 1;
const BATCH: u64 = 3;
const MOE: u64 = 4;

/// One generation job: a prompt and how many tokens to generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    pub prompt: Vec<i64>,
    pub new_tokens: usize,
}

/// A job with stratified prompt and output lengths and random tokens.
fn job(seed: u64, tag: u64, index: u64, prompt: (usize, usize), out: (usize, usize), vocab: usize) -> Job {
    let len = stratified(seed, tag << 1, index, prompt.0, prompt.1);
    Job {
        prompt: Rng::new(seed, tag, index).tokens(len, vocab),
        new_tokens: stratified(seed, (tag << 1) | 1, index, out.0, out.1),
    }
}

/// Sequence `index` of the `decode` workload: a 3–16 token prompt that
/// generates 16–48 tokens, so the cache grows toward a 64-token context.
pub fn decode_job(seed: u64, index: u64, vocab: usize) -> Job {
    job(seed, DECODE, index, (3, 16), (16, 48), vocab)
}

/// Session `index` of the `batch` workload: 2–8 prompt tokens, 8–24
/// generated; each aligned block of 17 sessions holds every output
/// length once.
pub fn batch_job(seed: u64, index: u64, vocab: usize) -> Job {
    job(seed, BATCH, index, (2, 8), (8, 24), vocab)
}

/// How many tokens request `index` of the `moe-requests` workload routes:
/// 1–64.
pub fn moe_token_count(seed: u64, index: u64) -> usize {
    stratified(seed, MOE << 1, index, 1, 64)
}

/// Request `index` of the `moe-requests` workload: its tokens, of width
/// `d_model`, row-major.
pub fn moe_tokens(seed: u64, index: u64, d_model: usize) -> (usize, Vec<f64>) {
    let t = moe_token_count(seed, index);
    let mut r = Rng::new(seed, MOE, index);
    (t, (0..t * d_model).map(|_| r.f32_sym(1.0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for i in 0..50 {
            assert_eq!(decode_job(7, i, 32), decode_job(7, i, 32));
            assert_eq!(batch_job(7, i, 16), batch_job(7, i, 16));
            assert_eq!(moe_tokens(7, i, 64), moe_tokens(7, i, 64));
        }
        let a: Vec<Job> = (0..20).map(|i| decode_job(1, i, 32)).collect();
        let b: Vec<Job> = (0..20).map(|i| decode_job(2, i, 32)).collect();
        assert_ne!(a, b, "different seeds must give different inputs");
        assert_ne!(batch_job(1, 0, 16), batch_job(2, 0, 16));
    }

    #[test]
    fn generated_jobs_stay_in_their_ranges() {
        for i in 0..500 {
            let d = decode_job(11, i, 32);
            assert!((3..=16).contains(&d.prompt.len()) && (16..=48).contains(&d.new_tokens));
            assert!(d.prompt.len() + d.new_tokens <= 64);
            assert!(d.prompt.iter().all(|&t| (0..32).contains(&t)));
            let b = batch_job(11, i, 16);
            assert!((2..=8).contains(&b.prompt.len()) && (8..=24).contains(&b.new_tokens));
            let (t, x) = moe_tokens(11, i, 8);
            assert!((1..=64).contains(&t) && x.len() == t * 8);
            assert!(x.iter().all(|v| (-1.0..1.0).contains(v) && *v == (*v as f32) as f64));
        }
    }

    #[test]
    fn stratified_blocks_cover_the_range_once_in_seeded_order() {
        let block = |seed, b: u64| -> Vec<usize> {
            (b * 33..(b + 1) * 33).map(|i| stratified(seed, 9, i, 16, 48)).collect()
        };
        for b in 0..4 {
            let mut v = block(5, b);
            v.sort_unstable();
            assert_eq!(v, (16..=48).collect::<Vec<_>>());
        }
        assert_ne!(block(5, 0), block(6, 0));
        assert_ne!(block(5, 0), block(5, 1));
    }
}
