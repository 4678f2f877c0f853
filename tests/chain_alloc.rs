//! Allocation counts of the transaction tree's ancestor chains, measured
//! with a counting global allocator on the test's own thread: taking a
//! chain allocates nothing, a node's shared ancestors are built once, when
//! it gains its first child, and further children build none.

use semcc::core::{TopId, TxnTree};
use semcc::semantics::{Invocation, MethodId, ObjectId, TypeId, TYPE_ATOMIC};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts fresh allocations. Growing an existing buffer (`realloc`, e.g.
/// the tree's node arena) is not counted: it is amortised, not per node.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

fn leaf(o: u64) -> Arc<Invocation> {
    Arc::new(Invocation::get(ObjectId(o), TYPE_ATOMIC))
}

fn method(o: u64) -> Arc<Invocation> {
    Arc::new(Invocation::user(ObjectId(o), TypeId(20), MethodId(0), vec![]))
}

#[test]
fn taking_a_chain_allocates_nothing() {
    let t = TxnTree::new(TopId(1));
    let m = t.add_child(0, method(5));
    let l = t.add_child(m, leaf(6));
    for idx in [l, m, 0] {
        let (chain, n) = allocs(|| t.chain(idx));
        assert_eq!(n, 0, "chain({idx}) allocated {n} times");
        drop(chain);
    }
}

#[test]
fn ancestors_are_built_once_per_interior_node() {
    let t = TxnTree::new(TopId(2));
    let (m, g) = (method(5), method(7));
    let leaves: Vec<_> = (10..16).map(leaf).collect();
    let m = t.add_child(0, m);
    // A first child costs the parent's child list plus its ancestors.
    let (g, first) = allocs(|| t.add_child(m, g));
    assert!(first > 1, "first child of m allocated only {first} times");
    for inv in &leaves[..5] {
        let (_, n) = allocs(|| t.add_child(m, Arc::clone(inv)));
        assert_eq!(n, 0, "a further child of m allocated {n} times");
    }
    // One level deeper the ancestors are longer, but built the same way.
    let (_, deeper) = allocs(|| t.add_child(g, Arc::clone(&leaves[5])));
    assert_eq!(deeper, first, "the first child of a deeper node costs the same");
}
