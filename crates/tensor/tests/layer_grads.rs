//! Parameter-space gradient checks for whole layers: the analytic gradient
//! accumulated into the `ParamStore` must match central differences of the
//! loss with respect to every weight.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sarn_tensor::layers::{Activation, Block, EdgeIndex, Ffn, GatLayer, Gru, Linear};
use sarn_tensor::{init, Graph, ParamStore, Tensor};

/// Checks every parameter of `store` against finite differences of
/// `loss_of(store)`.
fn check_param_grads(
    store: &mut ParamStore,
    loss_of: &dyn Fn(&ParamStore) -> (f32, Option<ParamStore>),
    eps: f32,
    tol: f32,
) {
    // Analytic pass (the closure returns the store with accumulated grads).
    let (_, grads) = loss_of(store);
    let grads = grads.expect("analytic pass must return gradients");
    for id in store.ids().collect::<Vec<_>>() {
        for k in 0..store.value(id).len() {
            let orig = store.value(id).data()[k];
            store.value_mut(id).data_mut()[k] = orig + eps;
            let (up, _) = loss_of(store);
            store.value_mut(id).data_mut()[k] = orig - eps;
            let (down, _) = loss_of(store);
            store.value_mut(id).data_mut()[k] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads.grad(id).data()[k];
            assert!(
                (numeric - analytic).abs() < tol,
                "param {} [{k}]: numeric {numeric} vs analytic {analytic}",
                store.name(id),
            );
        }
    }
}

#[test]
fn linear_layer_param_grads_match_finite_differences() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let layer = Linear::new(&mut store, &mut rng, "l", 3, 2, true);
    let x = init::normal(&mut rng, 4, 3, 1.0);
    let loss_of = move |s: &ParamStore| -> (f32, Option<ParamStore>) {
        let g = Graph::new();
        let xin = g.input(x.clone());
        let y = layer.forward(&g, s, xin);
        let loss = g.mean_all(g.sqr(y));
        let v = g.value(loss).item();
        g.backward(loss);
        let mut sc = s.clone();
        sc.zero_grads();
        g.accumulate_grads(&mut sc);
        (v, Some(sc))
    };
    check_param_grads(&mut store, &loss_of, 1e-2, 2e-2);
}

#[test]
fn ffn_param_grads_match_finite_differences() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(2);
    let net = Ffn::new(&mut store, &mut rng, "f", &[3, 4, 2], Activation::Tanh);
    let x = init::normal(&mut rng, 3, 3, 1.0);
    let target = init::normal(&mut rng, 3, 2, 1.0);
    let loss_of = move |s: &ParamStore| -> (f32, Option<ParamStore>) {
        let g = Graph::new();
        let xin = g.input(x.clone());
        let y = net.forward(&g, s, xin);
        let loss = g.mse(y, &target);
        let v = g.value(loss).item();
        g.backward(loss);
        let mut sc = s.clone();
        sc.zero_grads();
        g.accumulate_grads(&mut sc);
        (v, Some(sc))
    };
    check_param_grads(&mut store, &loss_of, 1e-2, 2e-2);
}

#[test]
fn gat_layer_param_grads_match_finite_differences() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let layer = GatLayer::new(&mut store, &mut rng, "g", 3, 3, 2, true);
    let x = init::normal(&mut rng, 5, 3, 1.0);
    let edges = Block::full(&EdgeIndex::with_self_loops(
        5,
        [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2)],
    ));
    let loss_of = move |s: &ParamStore| -> (f32, Option<ParamStore>) {
        let g = Graph::new();
        let xin = g.input(x.clone());
        let y = layer.forward(&g, s, xin, &edges);
        let loss = g.mean_all(g.sqr(y));
        let v = g.value(loss).item();
        g.backward(loss);
        let mut sc = s.clone();
        sc.zero_grads();
        g.accumulate_grads(&mut sc);
        (v, Some(sc))
    };
    check_param_grads(&mut store, &loss_of, 1e-2, 3e-2);
}

#[test]
fn gru_param_grads_match_finite_differences() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(4);
    let gru = Gru::new(&mut store, &mut rng, "r", 2, 3);
    let xs: Vec<Tensor> = (0..3).map(|_| init::normal(&mut rng, 2, 2, 1.0)).collect();
    let loss_of = move |s: &ParamStore| -> (f32, Option<ParamStore>) {
        let g = Graph::new();
        let vars: Vec<_> = xs.iter().map(|x| g.input(x.clone())).collect();
        let h = gru.run(&g, s, &vars, None);
        let loss = g.mean_all(g.sqr(h));
        let v = g.value(loss).item();
        g.backward(loss);
        let mut sc = s.clone();
        sc.zero_grads();
        g.accumulate_grads(&mut sc);
        (v, Some(sc))
    };
    check_param_grads(&mut store, &loss_of, 1e-2, 3e-2);
}
