//! Known-bad: the epoch-engine mutation paths allocate without waivers —
//! a fresh touched-set per edit in `batch_apply`, a rebuilt label vector
//! in `apply_insert_fp`, and a copied label table in `remove`.

struct Engine {
    labels: Vec<u32>,
    touched: Vec<u32>,
}

fn batch_apply(engine: &mut Engine, edits: &[u32]) -> Vec<u32> {
    let mut touched = Vec::new();
    for &e in edits {
        touched.push(e);
    }
    engine.touched = touched.clone();
    touched
}

fn apply_insert_fp(engine: &mut Engine, gone: u32, keep: u32) {
    let relabeled: Vec<u32> = engine
        .labels
        .iter()
        .map(|&r| if r == gone { keep } else { r })
        .collect();
    engine.labels = relabeled;
}

fn remove(engine: &Engine, edits: &[u32]) -> bool {
    let occupied = engine.labels.to_vec();
    edits.iter().all(|r| !occupied.contains(r))
}
