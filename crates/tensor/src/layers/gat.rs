//! Graph attention network (GAT) layers (Velickovic et al., ICLR 2018),
//! implemented sparsely over an edge list so memory scales with the number
//! of edges rather than `n^2`.
//!
//! Every layer runs over a [`Block`]: the rows it reads, the rows it
//! writes, and the in-edges of the written rows. The full-graph pass is the
//! block that holds every row ([`Block::full`]); a mini-batch runs the
//! per-layer blocks [`EdgeIndex::blocks`] cuts for its rows, so each layer
//! computes only the rows the next one reads.
//!
//! Per head, the layer gathers `W x` once per edge for the neighbour rows
//! the weighted sum reads. The attention logits come from one tape op,
//! [`Graph::gat_scores`], which reads the center rows of `W x` in place and
//! equals the gather–concat–matmul composition bit for bit, so no
//! `E x 2d` concatenation is ever built.

use std::rc::Rc;

use rand::Rng;

use crate::autograd::{Graph, Var};
use crate::init::xavier_uniform;
use crate::params::{ParamId, ParamStore};

/// Negative slope of the LeakyReLU applied to raw attention scores (Eq. 10).
const ATTN_LEAKY_SLOPE: f32 = 0.2;

/// Edge list describing the neighborhood structure a GAT layer attends over.
///
/// Edge `e` sends a message from node `neighbor[e]` into node `center[e]`;
/// attention is normalized per center node. Construct with
/// [`EdgeIndex::with_self_loops`] so every node receives at least its own
/// message even after aggressive graph corruption.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    /// Per-edge anchor (destination) node, i.e. `i` in `alpha_ij`.
    pub center: Rc<Vec<usize>>,
    /// Per-edge message source node, i.e. `j` in `alpha_ij`.
    pub neighbor: Rc<Vec<usize>>,
    /// Number of nodes.
    pub n: usize,
}

impl EdgeIndex {
    /// Builds an edge index from `(center, neighbor)` pairs, appending one
    /// self-loop per node.
    pub fn with_self_loops(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut center = Vec::new();
        let mut neighbor = Vec::new();
        for (c, nb) in pairs {
            debug_assert!(c < n && nb < n, "edge endpoint out of range");
            center.push(c);
            neighbor.push(nb);
        }
        for i in 0..n {
            center.push(i);
            neighbor.push(i);
        }
        Self {
            center: Rc::new(center),
            neighbor: Rc::new(neighbor),
            n,
        }
    }

    /// Number of edges (including self-loops).
    pub fn num_edges(&self) -> usize {
        self.center.len()
    }

    /// The blocks an `n_layers`-layer encoder runs to compute `rows` (any
    /// order, duplicates allowed), first layer first. The last block writes
    /// `rows` sorted and deduplicated; every earlier block writes exactly
    /// the rows the next block reads, so the first block reads the
    /// `n_layers`-hop in-field of `rows`.
    ///
    /// Two orders make a block pass equal the full pass bit for bit on the
    /// rows it computes, gradients included: each block's source rows stay
    /// in ascending global order (weight gradients sum over rows in that
    /// order), and its edges keep this index's order (the segment softmax
    /// and sum run over each destination's in-edges in that order, and the
    /// attention-vector gradient over all edges). Every term a block drops
    /// belongs to a row nothing downstream reads, so it is an exact zero.
    pub fn blocks(&self, rows: &[usize], n_layers: usize) -> Vec<Block> {
        let mut dst = rows.to_vec();
        dst.sort_unstable();
        dst.dedup();
        let mut dst = Rc::new(dst);
        let mut blocks = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let block = self.block(dst);
            dst = Rc::clone(&block.src);
            blocks.push(block);
        }
        blocks.reverse();
        blocks
    }

    /// Cuts the block that writes `dst` (ascending, unique) by one scan of
    /// the edge list: it keeps every in-edge of a `dst` row, and reads the
    /// `dst` rows plus the sources of the kept edges.
    fn block(&self, dst: Rc<Vec<usize>>) -> Block {
        const NONE: usize = usize::MAX;
        let mut dst_pos = vec![NONE; self.n];
        for (p, &i) in dst.iter().enumerate() {
            dst_pos[i] = p;
        }
        let kept: Vec<usize> = (0..self.num_edges())
            .filter(|&e| dst_pos[self.center[e]] != NONE)
            .collect();
        // Mark the source rows, then number them in ascending row order.
        let mut src_pos = vec![NONE; self.n];
        for &i in dst.iter() {
            src_pos[i] = 0;
        }
        for &e in &kept {
            src_pos[self.neighbor[e]] = 0;
        }
        let mut src = Vec::new();
        for (i, p) in src_pos.iter_mut().enumerate() {
            if *p != NONE {
                *p = src.len();
                src.push(i);
            }
        }
        let local = |pos: &[usize], ends: &[usize]| -> Rc<Vec<usize>> {
            Rc::new(kept.iter().map(|&e| pos[ends[e]]).collect())
        };
        Block {
            center: local(&dst_pos, &self.center),
            center_src: local(&src_pos, &self.center),
            neighbor: local(&src_pos, &self.neighbor),
            src: Rc::new(src),
            dst,
        }
    }
}

/// One GAT layer's message-flow block (the mini-batch "blocks" of
/// GraphSAGE and DGL, without neighbour sampling): the layer reads the
/// input rows `src` and writes the output rows `dst`, over every in-edge of
/// every `dst` row.
///
/// Both row lists hold global row ids in ascending order, and `dst` is a
/// subset of `src`. The edges keep the order of the [`EdgeIndex`] they were
/// cut from and are renumbered into the block's local rows. Only
/// [`Block::full`] and [`EdgeIndex::blocks`] build one, so those conditions
/// always hold.
#[derive(Clone, Debug)]
pub struct Block {
    /// Global ids of the rows the layer reads, ascending.
    src: Rc<Vec<usize>>,
    /// Global ids of the rows the layer writes, ascending.
    dst: Rc<Vec<usize>>,
    /// Per edge: the destination's position in `dst` (its softmax segment).
    center: Rc<Vec<usize>>,
    /// Per edge: the destination's position in `src` (its own `W x_i`).
    center_src: Rc<Vec<usize>>,
    /// Per edge: the message source's position in `src`.
    neighbor: Rc<Vec<usize>>,
}

impl Block {
    /// Global ids of the rows the layer reads, ascending.
    pub fn src(&self) -> &[usize] {
        &self.src
    }

    /// Global ids of the rows the layer writes, ascending.
    pub fn dst(&self) -> &[usize] {
        &self.dst
    }

    /// The block that holds every row of `edges`: the full-graph pass.
    pub fn full(edges: &EdgeIndex) -> Self {
        let all = Rc::new((0..edges.n).collect::<Vec<_>>());
        Self {
            src: Rc::clone(&all),
            dst: all,
            center: Rc::clone(&edges.center),
            center_src: Rc::clone(&edges.center),
            neighbor: Rc::clone(&edges.neighbor),
        }
    }
}

struct Head {
    w: ParamId,
    a: ParamId,
}

/// One multi-head GAT layer (Eq. 8–10 of the SARN paper).
pub struct GatLayer {
    heads: Vec<Head>,
    d_in: usize,
    d_head: usize,
    /// Concatenate head outputs (hidden layers) or average them (final layer).
    concat: bool,
}

impl GatLayer {
    /// Registers a GAT layer with `n_heads` heads of width `d_head`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_head: usize,
        n_heads: usize,
        concat: bool,
    ) -> Self {
        assert!(n_heads >= 1, "a GAT layer needs at least one head");
        let heads = (0..n_heads)
            .map(|h| Head {
                w: store.add(format!("{name}.h{h}.w"), xavier_uniform(rng, d_in, d_head)),
                a: store.add(format!("{name}.h{h}.a"), xavier_uniform(rng, 2 * d_head, 1)),
            })
            .collect();
        Self {
            heads,
            d_in,
            d_head,
            concat,
        }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output width (`n_heads * d_head` when concatenating, `d_head` when
    /// averaging).
    pub fn d_out(&self) -> usize {
        if self.concat {
            self.heads.len() * self.d_head
        } else {
            self.d_head
        }
    }

    /// All parameter ids of this layer.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.heads.iter().flat_map(|h| [h.w, h.a]).collect()
    }

    /// Records one attention layer over `block` on the tape: per head,
    /// `e_ij = LeakyReLU(a^T [W x_i || W x_j])`, softmax over each node's
    /// in-neighborhood, then the attention-weighted message sum. `x` holds
    /// the block's `src` rows; the result holds its `dst` rows.
    pub fn forward(&self, g: &Graph, store: &ParamStore, x: Var, block: &Block) -> Var {
        self.forward_activated(g, store, x, block, None)
    }

    /// [`GatLayer::forward`] with an optional ELU (parameter `elu_alpha`)
    /// applied to the layer output. For concatenating (hidden) layers the
    /// ELU is fused into each head's scatter
    /// ([`Graph::segment_weighted_sum_elu`]); because ELU is elementwise and
    /// head concatenation only rearranges columns, this is bit-identical to
    /// `elu(forward(..))` while saving a tape node and an extra pass over
    /// the `n x d` hidden matrix.
    pub fn forward_activated(
        &self,
        g: &Graph,
        store: &ParamStore,
        x: Var,
        block: &Block,
        elu_alpha: Option<f32>,
    ) -> Var {
        assert_eq!(
            g.shape(x).0,
            block.src.len(),
            "GAT input rows must be the block's source rows"
        );
        let nseg = block.dst.len();
        let mut outs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let w = g.param(store, head.w);
            let a = g.param(store, head.a);
            let wx = g.matmul(x, w);
            // The weighted sum reads the neighbour rows, so they are
            // gathered once; the logits read the center rows in place.
            let hn = g.gather_rows(wx, &block.neighbor);
            let scores = g.gat_scores(wx, hn, a, Rc::clone(&block.center_src));
            let scores = g.leaky_relu(scores, ATTN_LEAKY_SLOPE);
            let alpha = g.segment_softmax(scores, Rc::clone(&block.center), nseg);
            let msg = match (self.concat, elu_alpha) {
                (true, Some(al)) => {
                    g.segment_weighted_sum_elu(alpha, hn, Rc::clone(&block.center), nseg, al)
                }
                _ => g.segment_weighted_sum(alpha, hn, Rc::clone(&block.center), nseg),
            };
            outs.push(msg);
        }
        if self.concat {
            g.concat_cols(&outs)
        } else {
            let mut acc = outs[0];
            for &o in &outs[1..] {
                acc = g.add(acc, o);
            }
            let avg = g.scale(acc, 1.0 / outs.len() as f32);
            // Averaging mixes head outputs, so the ELU cannot be fused into
            // the per-head scatters; apply it on the averaged output.
            match elu_alpha {
                Some(al) => g.elu(avg, al),
                None => avg,
            }
        }
    }
}

/// A stack of GAT layers with ELU activations between layers; the final
/// layer averages its heads (the paper uses 3 layers with L = 4 heads).
pub struct GatEncoder {
    layers: Vec<GatLayer>,
}

impl GatEncoder {
    /// Builds an encoder mapping `d_in -> d_out` through `n_layers` layers of
    /// `n_heads` heads each. Hidden layers concatenate heads and keep an
    /// output width of `d_out` (so `d_out` must be divisible by `n_heads`);
    /// the final layer averages heads of width `d_out`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out: usize,
        n_layers: usize,
        n_heads: usize,
    ) -> Self {
        assert!(n_layers >= 1, "encoder needs at least one layer");
        assert_eq!(
            d_out % n_heads,
            0,
            "d_out ({d_out}) must be divisible by n_heads ({n_heads})"
        );
        let mut layers = Vec::with_capacity(n_layers);
        let mut width = d_in;
        for l in 0..n_layers {
            let last = l + 1 == n_layers;
            let layer = if last {
                GatLayer::new(
                    store,
                    rng,
                    &format!("{name}.gat{l}"),
                    width,
                    d_out,
                    n_heads,
                    false,
                )
            } else {
                GatLayer::new(
                    store,
                    rng,
                    &format!("{name}.gat{l}"),
                    width,
                    d_out / n_heads,
                    n_heads,
                    true,
                )
            };
            width = layer.d_out();
            layers.push(layer);
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.layers
            .last()
            .expect("encoder has at least one layer")
            .d_out()
    }

    /// All parameter ids across layers.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.layers.iter().flat_map(GatLayer::param_ids).collect()
    }

    /// Parameter ids of the final layer only (fine-tuned by SARN*).
    pub fn last_layer_param_ids(&self) -> Vec<ParamId> {
        self.layers
            .last()
            .expect("encoder has at least one layer")
            .param_ids()
    }

    /// Records the full-graph encoder on the tape: every layer runs over
    /// [`Block::full`].
    pub fn forward(&self, g: &Graph, store: &ParamStore, x: Var, edges: &EdgeIndex) -> Var {
        let blocks = vec![Block::full(edges); self.layers.len()];
        self.forward_blocks(g, store, x, &blocks)
    }

    /// Records the encoder over one block per layer, first layer first (as
    /// [`EdgeIndex::blocks`] returns them): `x` holds the first block's
    /// `src` rows, and the result the last block's `dst` rows. Hidden
    /// layers fuse their ELU into the attention scatter (bit-identical to
    /// the separate `elu(layer(..))` form — see
    /// [`GatLayer::forward_activated`]).
    pub fn forward_blocks(&self, g: &Graph, store: &ParamStore, x: Var, blocks: &[Block]) -> Var {
        assert_eq!(blocks.len(), self.layers.len(), "one block per layer");
        let mut h = x;
        for (l, (layer, block)) in self.layers.iter().zip(blocks).enumerate() {
            let hidden = l + 1 < self.layers.len();
            h = layer.forward_activated(g, store, h, block, hidden.then_some(1.0));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_graph(n: usize) -> EdgeIndex {
        // 0 <-> 1 <-> 2 ... both directions
        let mut pairs = Vec::new();
        for i in 0..n - 1 {
            pairs.push((i, i + 1));
            pairs.push((i + 1, i));
        }
        EdgeIndex::with_self_loops(n, pairs)
    }

    #[test]
    fn edge_index_adds_self_loops() {
        let e = line_graph(4);
        assert_eq!(e.num_edges(), 6 + 4);
    }

    /// Six rows, edges listed out of row order, then the six self-loops:
    /// e0 2<-3, e1 1<-0, e2 2<-1, e3 4<-5, e4 3<-4, e5 0<-1, e6..e11 i<-i.
    fn hand_graph() -> EdgeIndex {
        EdgeIndex::with_self_loops(6, [(2, 3), (1, 0), (2, 1), (4, 5), (3, 4), (0, 1)])
    }

    /// A block's edges as global `(center, neighbor)` pairs.
    fn global_edges(b: &Block) -> Vec<(usize, usize)> {
        (0..b.center.len())
            .map(|k| (b.dst[b.center[k]], b.src[b.neighbor[k]]))
            .collect()
    }

    /// The invariants every cut must hold: sorted sources that contain the
    /// destinations, the view's in-edges of exactly the destinations in the
    /// view's order, and chained layers.
    fn assert_well_formed(edges: &EdgeIndex, rows: &[usize], blocks: &[Block]) {
        let mut want_last: Vec<usize> = rows.to_vec();
        want_last.sort_unstable();
        want_last.dedup();
        assert_eq!(*blocks.last().unwrap().dst, want_last);
        for (l, b) in blocks.iter().enumerate() {
            assert!(b.src.windows(2).all(|w| w[0] < w[1]), "src not ascending");
            assert!(b.dst.windows(2).all(|w| w[0] < w[1]), "dst not ascending");
            assert!(b.dst.iter().all(|i| b.src.contains(i)), "dst not in src");
            let view_order: Vec<(usize, usize)> = edges
                .center
                .iter()
                .zip(edges.neighbor.iter())
                .filter(|(c, _)| b.dst.contains(c))
                .map(|(&c, &nb)| (c, nb))
                .collect();
            assert_eq!(global_edges(b), view_order, "layer {l} edges");
            for k in 0..b.center.len() {
                assert_eq!(b.src[b.center_src[k]], b.dst[b.center[k]]);
            }
            if l + 1 < blocks.len() {
                assert_eq!(
                    b.dst,
                    blocks[l + 1].src,
                    "layer {l} must write what {} reads",
                    l + 1
                );
            }
        }
    }

    #[test]
    fn blocks_of_a_hand_built_graph() {
        let edges = hand_graph();
        let blocks = edges.blocks(&[2], 2);
        assert_eq!(blocks.len(), 2);
        // Last layer: row 2 and its in-edges e0, e2, e8.
        let last = &blocks[1];
        assert_eq!(*last.dst, vec![2]);
        assert_eq!(*last.src, vec![1, 2, 3]);
        assert_eq!(*last.center, vec![0, 0, 0]);
        assert_eq!(*last.center_src, vec![1, 1, 1]);
        assert_eq!(*last.neighbor, vec![2, 0, 1]);
        assert_eq!(global_edges(last), vec![(2, 3), (2, 1), (2, 2)]);
        // First layer: rows 1..=3 and their in-edges e0, e1, e2, e4, e7,
        // e8, e9, still in view order although they interleave.
        let first = &blocks[0];
        assert_eq!(*first.dst, vec![1, 2, 3]);
        assert_eq!(*first.src, vec![0, 1, 2, 3, 4]);
        assert_eq!(*first.center, vec![1, 0, 1, 2, 0, 1, 2]);
        assert_eq!(*first.center_src, vec![2, 1, 2, 3, 1, 2, 3]);
        assert_eq!(*first.neighbor, vec![3, 0, 1, 4, 1, 2, 3]);
        assert_well_formed(&edges, &[2], &blocks);
    }

    #[test]
    fn blocks_sort_and_dedup_the_requested_rows() {
        let edges = hand_graph();
        let rows = [5, 0, 5];
        let blocks = edges.blocks(&rows, 3);
        let last = &blocks[2];
        assert_eq!(*last.dst, vec![0, 5]);
        assert_eq!(*last.src, vec![0, 1, 5]);
        assert_eq!(global_edges(last), vec![(0, 1), (0, 0), (5, 5)]);
        assert_eq!(*last.center, vec![0, 0, 1]);
        assert_eq!(*last.center_src, vec![0, 0, 2]);
        assert_eq!(*last.neighbor, vec![1, 0, 2]);
        assert_well_formed(&edges, &rows, &blocks);
        for rows in [&[3][..], &[4, 1], &[0, 1, 2, 3, 4, 5]] {
            assert_well_formed(&edges, rows, &edges.blocks(rows, 3));
        }
    }

    #[test]
    fn blocks_of_every_row_are_the_full_block() {
        let edges = hand_graph();
        let all: Vec<usize> = (0..edges.n).collect();
        let full = Block::full(&edges);
        for b in edges.blocks(&all, 3) {
            assert_eq!(b.src, full.src);
            assert_eq!(b.dst, full.dst);
            assert_eq!(b.center, full.center);
            assert_eq!(b.center_src, full.center_src);
            assert_eq!(b.neighbor, full.neighbor);
        }
    }

    #[test]
    fn layer_output_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GatLayer::new(&mut store, &mut rng, "g", 6, 4, 3, true);
        assert_eq!(layer.d_out(), 12);
        let g = Graph::new();
        let x = g.input(Tensor::ones(5, 6));
        let y = layer.forward(&g, &store, x, &Block::full(&line_graph(5)));
        assert_eq!(g.shape(y), (5, 12));
    }

    #[test]
    fn encoder_stacks_and_averages_final_heads() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = GatEncoder::new(&mut store, &mut rng, "enc", 6, 8, 3, 4);
        assert_eq!(enc.n_layers(), 3);
        assert_eq!(enc.d_out(), 8);
        let g = Graph::new();
        let x = g.input(Tensor::ones(5, 6));
        let y = enc.forward(&g, &store, x, &line_graph(5));
        assert_eq!(g.shape(y), (5, 8));
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn attention_weights_sum_to_one_per_node() {
        // With a single head and identity-ish input, the segment softmax must
        // produce a convex combination: output of a node whose neighbors all
        // carry the same feature row equals that row transformed by W.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let layer = GatLayer::new(&mut store, &mut rng, "g", 3, 3, 1, true);
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(4, 3, [[1.0f32, 2.0, 3.0]; 4].concat()));
        let y = layer.forward(&g, &store, x, &Block::full(&line_graph(4)));
        let wx = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).matmul(store.value(layer.heads[0].w));
        let out = g.value(y);
        for i in 0..4 {
            for c in 0..3 {
                assert!((out.at(i, c) - wx.at(0, c)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gradients_reach_every_gat_parameter() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = GatEncoder::new(&mut store, &mut rng, "enc", 4, 4, 2, 2);
        let g = Graph::new();
        let x = g.input(crate::init::normal(&mut rng, 5, 4, 1.0));
        let y = enc.forward(&g, &store, x, &line_graph(5));
        let loss = g.mean_all(g.sqr(y));
        g.backward(loss);
        g.accumulate_grads(&mut store);
        for id in enc.param_ids() {
            assert!(
                store.grad(id).norm_sq() > 0.0,
                "no grad for {}",
                store.name(id)
            );
        }
    }
}
