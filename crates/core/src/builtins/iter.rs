//! Iteration built-ins: `dotimes` and `dolist`.
//!
//! Both receive their bodies unevaluated and re-evaluate them per
//! iteration; the loop variable is bound in a fresh child environment so
//! it disappears after the loop (unlike the paper-style `let`, which binds
//! into the current environment). Each iteration overwrites the variable's
//! newest binding there instead of prepending a new one, so lookups
//! through the loop environment cost the same on every iteration.

use super::util::{as_list_children, expect_min, nil};
use crate::error::{CuliError, Result};
use crate::eval::{eval, ParallelHook};
use crate::interp::Interp;
use crate::node::{Node, NodeType, Payload};
use crate::types::{EnvId, NodeId, StrId};

fn loop_header(interp: &Interp, head: NodeId, builtin: &'static str) -> Result<(StrId, NodeId)> {
    let parts = match interp.arena.get(head).ty {
        NodeType::List => interp.arena.list_children(head),
        _ => {
            return Err(CuliError::Type {
                builtin,
                expected: "a (var source) header",
            })
        }
    };
    if parts.len() != 2 {
        return Err(CuliError::Type {
            builtin,
            expected: "a (var source) header",
        });
    }
    match (
        interp.arena.get(parts[0]).ty,
        interp.arena.get(parts[0]).payload,
    ) {
        (NodeType::Symbol, Payload::Text(sym)) => Ok((sym, parts[1])),
        _ => Err(CuliError::Type {
            builtin,
            expected: "a symbol loop variable",
        }),
    }
}

/// `(dotimes (i n) body…)` — evaluate the body with `i` = 0..n-1; nil.
pub fn dotimes(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    expect_min("dotimes", args, 1)?;
    let (var, count_expr) = loop_header(interp, args[0], "dotimes")?;
    let count_val = eval(interp, hook, count_expr, env, depth + 1)?;
    let count = match interp.arena.get(count_val).payload {
        Payload::Int(v) if v >= 0 => v,
        _ => {
            return Err(CuliError::Type {
                builtin: "dotimes",
                expected: "a non-negative count",
            })
        }
    };
    let loop_env = interp.envs.push(Some(env));
    for i in 0..count {
        let idx = interp.alloc(Node::int(i))?;
        interp
            .envs
            .rebind_local(loop_env, var, idx, &interp.strings);
        for &body in &args[1..] {
            eval(interp, hook, body, loop_env, depth + 1)?;
        }
    }
    nil(interp)
}

/// `(dolist (x lst) body…)` — evaluate the body once per element; nil.
pub fn dolist(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    expect_min("dolist", args, 1)?;
    let (var, list_expr) = loop_header(interp, args[0], "dolist")?;
    let list_val = eval(interp, hook, list_expr, env, depth + 1)?;
    let items = as_list_children(interp, list_val, "dolist")?;
    let loop_env = interp.envs.push(Some(env));
    for item in items {
        interp
            .envs
            .rebind_local(loop_env, var, item, &interp.strings);
        for &body in &args[1..] {
            eval(interp, hook, body, loop_env, depth + 1)?;
        }
    }
    nil(interp)
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    #[test]
    fn dotimes_counts() {
        let mut i = Interp::default();
        i.eval_str("(setq acc 0)").unwrap();
        assert_eq!(
            i.eval_str("(dotimes (k 5) (setq acc (+ acc k)))").unwrap(),
            "nil"
        );
        assert_eq!(i.eval_str("acc").unwrap(), "10");
    }

    #[test]
    fn dotimes_zero_skips_body() {
        let mut i = Interp::default();
        i.eval_str("(setq hit nil)").unwrap();
        i.eval_str("(dotimes (k 0) (setq hit T))").unwrap();
        assert_eq!(i.eval_str("hit").unwrap(), "nil");
    }

    #[test]
    fn dolist_walks_elements() {
        let mut i = Interp::default();
        i.eval_str("(setq acc 1)").unwrap();
        i.eval_str("(dolist (x (list 2 3 7)) (setq acc (* acc x)))")
            .unwrap();
        assert_eq!(i.eval_str("acc").unwrap(), "42");
    }

    #[test]
    fn loop_variable_stays_scoped() {
        let mut i = Interp::default();
        i.eval_str("(dotimes (k 3) k)").unwrap();
        assert_eq!(i.eval_str("k").unwrap(), "k", "k unbound after the loop");
    }

    #[test]
    fn body_define_of_the_loop_name_sees_each_iteration() {
        // The paper-style `let` binds `k` into the loop environment itself,
        // shadowing the loop's binding; the next iteration overwrites that
        // newest binding, so each iteration still reads its own index
        // first and the body's value after its `let`.
        let mut i = Interp::default();
        i.eval_str("(setq seen nil)").unwrap();
        i.eval_str(
            "(dotimes (k 3) (setq seen (cons k seen)) (let k 99) (setq seen (cons k seen)))",
        )
        .unwrap();
        assert_eq!(i.eval_str("seen").unwrap(), "(99 2 99 1 99 0)");
        i.eval_str("(setq seen nil)").unwrap();
        i.eval_str(
            "(dolist (x (list 4 5)) (setq seen (cons x seen)) (let x 0) (setq seen (cons x seen)))",
        )
        .unwrap();
        assert_eq!(i.eval_str("seen").unwrap(), "(0 5 0 4)");
    }

    #[test]
    fn headers_are_validated() {
        let mut i = Interp::default();
        assert!(i.eval_str("(dotimes 5 1)").is_err());
        assert!(i.eval_str("(dotimes (k) 1)").is_err());
        assert!(i.eval_str("(dotimes (k -1) 1)").is_err());
        assert!(i.eval_str("(dolist (5 (list 1)) 1)").is_err());
    }
}
