//! Known-bad: allocating constructs inside the packed bitset sweep.

fn bits_not(dst: &mut [u64], a: &[u64], b: &[u64]) -> usize {
    let staged: Vec<u64> = a.iter().zip(b).map(|(x, y)| x & !y).collect();
    for (d, w) in dst.iter_mut().zip(staged.clone()) {
        *d = w;
    }
    staged.len()
}

fn prepare_words(n: usize) -> Vec<u64> {
    // Not a hot-path function: allocation here is fine.
    vec![0u64; n.div_ceil(64)]
}
