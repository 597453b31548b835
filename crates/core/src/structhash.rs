//! Order-sensitive structural hashing and equality over parsed trees.
//!
//! The cache layer (`culi_runtime::cache` in the runtime crate) keys on
//! the *shape and content* of a parsed command, not its [`NodeId`]s:
//! repeated traffic re-parses into fresh arena slots every time, so node
//! identity is useless as a key while structure repeats exactly. This
//! module produces that key.
//!
//! # Canonical encoding
//!
//! [`StructKey::of`] walks a tree (charge-free — it reads the arena and
//! string table directly and never touches the meter) and emits a
//! **canonical byte encoding**: one tag byte per node, payloads serialized
//! by value (integers/floats little-endian, symbol and string *bytes*
//! rather than intern ids, builtin registry indices — stable across
//! interpreters because the registry is populated in a fixed order at
//! boot), children in order with an explicit end marker. The encoding is
//! injective: two trees produce the same byte string iff they are
//! structurally equal, including order. Equality of keys is therefore a
//! *full tree compare*, and the 64-bit FNV-1a hash over the encoding is
//! only an accelerator — a hash collision between different trees is
//! caught by the byte compare and never produces a false "equal"
//! ([`StructKey::tree_equal`]). Cache tests force collisions by narrowing
//! the hash with a mask ([`StructKey::masked`]) and rely on exactly this
//! fallback.
//!
//! # Charge-exactness
//!
//! Hashing is free by construction: the walk uses [`crate::arena::NodeArena::get`]
//! (unmetered) and [`crate::strings::StrTable::get`], so a cache layer
//! built on these keys cannot perturb the paper-model meter, which must
//! stay bit-identical with caching on or off.

use crate::interp::Interp;
use crate::node::{NodeType, Payload};
use crate::types::NodeId;

const TAG_NIL: u8 = 0;
const TAG_TRUE: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_SYMBOL: u8 = 5;
const TAG_FUNCTION: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_EXPRESSION: u8 = 8;
const TAG_FORM: u8 = 9;
const TAG_MACRO: u8 = 10;
/// Closes a `LIST`/`EXPRESSION` child sequence; no node tag collides.
const TAG_END: u8 = 0xF7;
/// Separates the top-level forms of a multi-form command.
const TAG_FORM_SEP: u8 = 0xF8;

/// Structural identity of a parsed tree: a canonical byte encoding plus
/// its FNV-1a hash. See the module docs for the encoding contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructKey {
    /// FNV-1a over `canon`. Accelerator only — never trusted alone.
    pub hash: u64,
    /// The injective canonical encoding; equality here *is* full
    /// structural tree equality.
    pub canon: Vec<u8>,
}

impl StructKey {
    /// The key of the tree rooted at `root`. Charge-free.
    pub fn of(interp: &Interp, root: NodeId) -> Self {
        let mut canon = Vec::with_capacity(64);
        encode_tree(interp, root, &mut canon);
        let hash = fnv1a(&canon);
        Self { hash, canon }
    }

    /// The key of a whole command: its top-level forms in order, with a
    /// form count prefix so `(a)(b)` never aliases `(a b)`. Charge-free.
    pub fn of_forms(interp: &Interp, roots: &[NodeId]) -> Self {
        let mut canon = Vec::with_capacity(64 * roots.len().max(1));
        canon.extend_from_slice(&(roots.len() as u32).to_le_bytes());
        for &root in roots {
            encode_tree(interp, root, &mut canon);
            canon.push(TAG_FORM_SEP);
        }
        let hash = fnv1a(&canon);
        Self { hash, canon }
    }

    /// Full structural equality (the collision check): compares the
    /// canonical encodings byte for byte.
    pub fn tree_equal(&self, other: &StructKey) -> bool {
        self.canon == other.canon
    }

    /// The hash narrowed by `mask`. Caches bucket on this so tests can
    /// force collisions (e.g. `mask = 0`) and prove the byte-compare
    /// fallback serves no wrong reply.
    pub fn masked(&self, mask: u64) -> u64 {
        self.hash & mask
    }

    /// Heap bytes this key retains (for cache byte budgets).
    pub fn retained_bytes(&self) -> usize {
        self.canon.len()
    }
}

/// FNV-1a over `bytes` (the postbox's sibling hash discipline: simple,
/// deterministic, dependency-free).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One step of the explicit-stack preorder walk.
enum Step {
    Node(NodeId),
    Byte(u8),
}

fn encode_tree(interp: &Interp, root: NodeId, out: &mut Vec<u8>) {
    let mut stack = vec![Step::Node(root)];
    while let Some(step) = stack.pop() {
        let id = match step {
            Step::Byte(b) => {
                out.push(b);
                continue;
            }
            Step::Node(id) => id,
        };
        let node = interp.arena.get(id);
        match (node.ty, node.payload) {
            (NodeType::Nil, _) => out.push(TAG_NIL),
            (NodeType::True, _) => out.push(TAG_TRUE),
            (NodeType::Int, Payload::Int(v)) => {
                out.push(TAG_INT);
                out.extend_from_slice(&v.to_le_bytes());
            }
            (NodeType::Float, Payload::Float(v)) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            (NodeType::Str, Payload::Text(s)) | (NodeType::Symbol, Payload::Text(s)) => {
                out.push(if node.ty == NodeType::Str {
                    TAG_STR
                } else {
                    TAG_SYMBOL
                });
                let text = interp.strings.get(s);
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text);
            }
            (NodeType::Function, Payload::Builtin(f)) => {
                out.push(TAG_FUNCTION);
                out.extend_from_slice(&(f.index() as u32).to_le_bytes());
            }
            (NodeType::List, _) | (NodeType::Expression, _) => {
                out.push(if node.ty == NodeType::List {
                    TAG_LIST
                } else {
                    TAG_EXPRESSION
                });
                stack.push(Step::Byte(TAG_END));
                // Children must pop in list order: extend forward, then
                // reverse the just-pushed range in place (no per-node
                // scratch allocation — this walk is on the cache's probe
                // hot path).
                let start = stack.len();
                stack.extend(interp.arena.iter_list(id).map(Step::Node));
                stack[start..].reverse();
            }
            (NodeType::Form, Payload::Form { params, body })
            | (NodeType::Macro, Payload::Form { params, body }) => {
                out.push(if node.ty == NodeType::Form {
                    TAG_FORM
                } else {
                    TAG_MACRO
                });
                stack.push(Step::Node(body));
                stack.push(Step::Node(params));
            }
            // A tag/payload mismatch cannot come out of the parser or
            // the evaluator's constructors; encode defensively as nil so
            // the walk never panics on a foreign tree.
            _ => out.push(TAG_NIL),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::InterpConfig;
    use crate::parser;

    fn parse_one(interp: &mut Interp, src: &str) -> NodeId {
        let forms = parser::parse(interp, src.as_bytes()).expect("parse");
        assert_eq!(forms.len(), 1, "{src}");
        forms[0]
    }

    fn key_of(src: &str) -> StructKey {
        let mut interp = Interp::new(InterpConfig::default());
        let root = parse_one(&mut interp, src);
        StructKey::of(&interp, root)
    }

    #[test]
    fn identical_sources_hash_identically_across_interps() {
        // Fresh interpreters, fresh arenas, different NodeIds — same key.
        let a = key_of("(+ 1 (list 2.5 \"x\") 'sym)");
        let b = key_of("(+ 1 (list 2.5 \"x\") 'sym)");
        assert_eq!(a, b);
        assert!(a.tree_equal(&b));
    }

    #[test]
    fn structure_is_order_sensitive() {
        assert_ne!(key_of("(+ 1 2)").canon, key_of("(+ 2 1)").canon);
        assert_ne!(key_of("(list 1 2)").canon, key_of("(list (1 2))").canon);
        assert_ne!(key_of("(a (b) c)").canon, key_of("(a (b c))").canon);
    }

    #[test]
    fn value_kinds_do_not_alias() {
        // Same printed digits, different node types.
        assert_ne!(key_of("1").canon, key_of("1.0").canon);
        assert_ne!(key_of("\"x\"").canon, key_of("'x").canon);
        assert_ne!(key_of("()").canon, key_of("nil").canon);
    }

    #[test]
    fn multi_form_commands_do_not_alias_merged_forms() {
        let mut interp = Interp::new(InterpConfig::default());
        let two = parser::parse(&mut interp, b"(a) (b)").expect("parse");
        let one = parser::parse(&mut interp, b"(a (b))").expect("parse");
        let k2 = StructKey::of_forms(&interp, &two);
        let k1 = StructKey::of_forms(&interp, &one);
        assert_ne!(k2.canon, k1.canon);
        assert!(!k2.tree_equal(&k1));
    }

    #[test]
    fn masked_hash_collides_but_tree_compare_distinguishes() {
        let a = key_of("(+ 1 2)");
        let b = key_of("(+ 1 3)");
        assert_ne!(a.hash, b.hash);
        // Narrow to nothing: forced collision...
        assert_eq!(a.masked(0), b.masked(0));
        // ...yet the full compare still tells them apart.
        assert!(!a.tree_equal(&b));
    }

    #[test]
    fn hashing_is_charge_free() {
        let mut interp = Interp::new(InterpConfig::default());
        let root = parse_one(&mut interp, "(defun f (x) (* x (+ x 1)))");
        let before = interp.meter.snapshot();
        let _k = StructKey::of(&interp, root);
        assert_eq!(
            interp.meter.snapshot(),
            before,
            "struct hashing must never charge"
        );
    }
}
