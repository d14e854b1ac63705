//! Block-pass equivalence: a GAT encoder run over the per-layer blocks
//! `EdgeIndex::blocks` cuts for some rows computes those rows, and the
//! parameter gradients of a loss on them, bit for bit as the full-graph
//! pass does. Random edge lists, random row sets, 1–3 layers, 1 and 4
//! threads.
//!
//! The input is a lookup into a parameter table with colliding row ids, as
//! the feature embedding is, so the table's scatter-add gradient is pinned
//! too. The thread knob is a process global: every change happens under
//! one lock and 1 thread is restored.

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sarn_tensor::layers::{EdgeIndex, GatEncoder};
use sarn_tensor::{init, Graph, ParamId, ParamStore, Tensor};

static KNOB: Mutex<()> = Mutex::new(());

/// Rows of the random graphs.
const N: usize = 12;

struct Fixture {
    store: ParamStore,
    table: ParamId,
    /// Per row: its row in `table` (ids collide).
    ids: Vec<usize>,
    enc: GatEncoder,
    /// Loss weights, one row per requested row.
    weights: Tensor,
}

impl Fixture {
    fn new(seed: u64, n_layers: usize, n_rows: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let table = store.add("table", init::normal(&mut rng, 5, 6, 1.0));
        let ids = (0..N).map(|i| (i * 7 + seed as usize) % 5).collect();
        let enc = GatEncoder::new(&mut store, &mut rng, "enc", 6, 4, n_layers, 2);
        let weights = init::normal(&mut rng, n_rows, 4, 1.0);
        Self {
            store,
            table,
            ids,
            enc,
            weights,
        }
    }

    /// The requested rows' outputs and every parameter gradient of
    /// `sum(weights ⊙ h[rows])`, as bits. `blocks` picks the block pass;
    /// otherwise the full pass runs and the rows are gathered after it.
    fn run(&self, edges: &EdgeIndex, rows: &[usize], blocks: bool) -> (Vec<u32>, Vec<Vec<u32>>) {
        let g = Graph::new();
        let table = g.param(&self.store, self.table);
        let h_rows = if blocks {
            let blocks = edges.blocks(rows, self.enc.n_layers());
            let ids: Vec<usize> = blocks[0].src().iter().map(|&i| self.ids[i]).collect();
            let x = g.gather_rows(table, &ids);
            let h = self.enc.forward_blocks(&g, &self.store, x, &blocks);
            let dst = blocks.last().expect("at least one layer").dst();
            let pos: Vec<usize> = rows
                .iter()
                .map(|r| dst.binary_search(r).expect("row is written"))
                .collect();
            g.gather_rows(h, &pos)
        } else {
            let x = g.gather_rows(table, &self.ids);
            let h = self.enc.forward(&g, &self.store, x, edges);
            g.gather_rows(h, rows)
        };
        let w = g.input(self.weights.clone());
        let loss = g.sum_all(g.mul(h_rows, w));
        g.backward(loss);
        let mut store = self.store.clone();
        store.zero_grads();
        g.accumulate_grads(&mut store);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let grads = store.ids().map(|id| bits(store.grad(id))).collect();
        (bits(&g.value(h_rows)), grads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_pass_equals_the_full_pass_bit_for_bit(
        pairs in proptest::collection::vec((0usize..N, 0usize..N), 0..40),
        rows in proptest::collection::vec(0usize..N, 1..6),
        n_layers in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let edges = EdgeIndex::with_self_loops(N, pairs);
        let fx = Fixture::new(seed, n_layers, rows.len());
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let mut outcome = Ok(());
        for threads in [1, 4] {
            sarn_par::set_num_threads(threads);
            let full = fx.run(&edges, &rows, false);
            let block = fx.run(&edges, &rows, true);
            if full.0 != block.0 {
                outcome = Err(format!("{threads} threads: rows differ"));
                break;
            }
            if full.1 != block.1 {
                outcome = Err(format!("{threads} threads: gradients differ"));
                break;
            }
        }
        sarn_par::set_num_threads(1);
        outcome?;
    }
}
