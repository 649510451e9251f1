//! A small expression AST over events.
//!
//! Invariants and derived events are algebraic combinations of raw event
//! counts. The AST supports evaluation against any event environment,
//! collection of referenced events, and linear-form extraction (used by the
//! inference engine to build cheap Gaussian factors for linear invariants).

use crate::id::EventId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::ops;

/// Source of event values for [`Expr::eval`].
pub trait EventEnv {
    /// The current value of event `id`.
    fn value(&self, id: EventId) -> f64;
}

impl EventEnv for [f64] {
    fn value(&self, id: EventId) -> f64 {
        self[id.index()]
    }
}

impl EventEnv for Vec<f64> {
    fn value(&self, id: EventId) -> f64 {
        self[id.index()]
    }
}

impl<F: Fn(EventId) -> f64> EventEnv for F {
    fn value(&self, id: EventId) -> f64 {
        self(id)
    }
}

/// An algebraic expression over event counts.
///
/// Construct with [`Expr::event`], [`Expr::konst`] and the arithmetic
/// operators:
///
/// ```
/// use bayesperf_events::{Expr, EventId};
/// let a = Expr::event(EventId::from_raw(0));
/// let b = Expr::event(EventId::from_raw(1));
/// let sum = a + b * Expr::konst(64.0);
/// assert_eq!(sum.events().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A constant.
    Const(f64),
    /// The value of an event.
    Event(EventId),
    /// Sum of two subexpressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two subexpressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two subexpressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient of two subexpressions.
    Div(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// An expression referencing a single event.
    pub fn event(id: EventId) -> Expr {
        Expr::Event(id)
    }

    /// A constant expression.
    pub fn konst(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Evaluates the expression against an environment.
    ///
    /// Division by zero yields `0.0` rather than infinity: counter
    /// denominators (cycles, instructions) are zero only in degenerate empty
    /// windows, where "no signal" is the useful answer.
    pub fn eval<E: EventEnv + ?Sized>(&self, env: &E) -> f64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Event(id) => env.value(*id),
            Expr::Add(a, b) => a.eval(env) + b.eval(env),
            Expr::Sub(a, b) => a.eval(env) - b.eval(env),
            Expr::Mul(a, b) => a.eval(env) * b.eval(env),
            Expr::Div(a, b) => {
                let d = b.eval(env);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(env) / d
                }
            }
        }
    }

    /// Compiles the expression into a flat [`Postfix`] program. `load`
    /// maps each event to a `(slot, scale)` pair: the program reads the
    /// event's value as `x[slot] * scale`.
    ///
    /// # Panics
    ///
    /// Panics if the expression nests deeper than the program's fixed
    /// evaluation stack (16 operands).
    pub fn compile(&self, load: &impl Fn(EventId) -> (usize, f64)) -> Postfix {
        let mut ops = Vec::new();
        let depth = self.emit(load, &mut ops);
        assert!(
            depth <= POSTFIX_STACK,
            "expression too deep to compile: {self}"
        );
        Postfix { ops }
    }

    /// Appends this subtree's postfix ops; returns the stack depth it needs.
    fn emit(&self, load: &impl Fn(EventId) -> (usize, f64), ops: &mut Vec<Op>) -> usize {
        let (a, b, op) = match self {
            Expr::Const(v) => {
                ops.push(Op::Const(*v));
                return 1;
            }
            Expr::Event(id) => {
                let (slot, scale) = load(*id);
                ops.push(Op::Load(slot, scale));
                return 1;
            }
            Expr::Add(a, b) => (a, b, Op::Add),
            Expr::Sub(a, b) => (a, b, Op::Sub),
            Expr::Mul(a, b) => (a, b, Op::Mul),
            Expr::Div(a, b) => (a, b, Op::Div),
        };
        let da = a.emit(load, ops);
        let db = b.emit(load, ops);
        ops.push(op);
        da.max(db + 1)
    }

    /// The set of events referenced by this expression, in id order.
    pub fn events(&self) -> Vec<EventId> {
        let mut set = BTreeSet::new();
        self.collect_events(&mut set);
        set.into_iter().collect()
    }

    fn collect_events(&self, out: &mut BTreeSet<EventId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Event(id) => {
                out.insert(*id);
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_events(out);
                b.collect_events(out);
            }
        }
    }

    /// If the expression is affine in the events (`c0 + Σ cᵢ·eᵢ`), returns
    /// `(c0, [(event, cᵢ)])` with coefficients merged per event; otherwise
    /// `None`.
    ///
    /// Products are linear only when one side is constant; quotients only
    /// when the divisor is constant.
    pub fn linear_form(&self) -> Option<(f64, Vec<(EventId, f64)>)> {
        let mut constant = 0.0;
        let mut coeffs: Vec<(EventId, f64)> = Vec::new();
        if self.accumulate_linear(1.0, &mut constant, &mut coeffs) {
            coeffs.sort_by_key(|(id, _)| *id);
            let mut merged: Vec<(EventId, f64)> = Vec::with_capacity(coeffs.len());
            for (id, c) in coeffs {
                match merged.last_mut() {
                    Some((last, acc)) if *last == id => *acc += c,
                    _ => merged.push((id, c)),
                }
            }
            merged.retain(|(_, c)| *c != 0.0);
            Some((constant, merged))
        } else {
            None
        }
    }

    fn accumulate_linear(
        &self,
        scale: f64,
        constant: &mut f64,
        coeffs: &mut Vec<(EventId, f64)>,
    ) -> bool {
        match self {
            Expr::Const(v) => {
                *constant += scale * v;
                true
            }
            Expr::Event(id) => {
                coeffs.push((*id, scale));
                true
            }
            Expr::Add(a, b) => {
                a.accumulate_linear(scale, constant, coeffs)
                    && b.accumulate_linear(scale, constant, coeffs)
            }
            Expr::Sub(a, b) => {
                a.accumulate_linear(scale, constant, coeffs)
                    && b.accumulate_linear(-scale, constant, coeffs)
            }
            Expr::Mul(a, b) => match (a.constant_value(), b.constant_value()) {
                (Some(ka), _) => b.accumulate_linear(scale * ka, constant, coeffs),
                (_, Some(kb)) => a.accumulate_linear(scale * kb, constant, coeffs),
                _ => false,
            },
            Expr::Div(a, b) => match b.constant_value() {
                Some(kb) if kb != 0.0 => a.accumulate_linear(scale / kb, constant, coeffs),
                _ => false,
            },
        }
    }

    /// If the expression contains no events, its constant value.
    pub fn constant_value(&self) -> Option<f64> {
        match self {
            Expr::Const(v) => Some(*v),
            Expr::Event(_) => None,
            Expr::Add(a, b) => Some(a.constant_value()? + b.constant_value()?),
            Expr::Sub(a, b) => Some(a.constant_value()? - b.constant_value()?),
            Expr::Mul(a, b) => Some(a.constant_value()? * b.constant_value()?),
            Expr::Div(a, b) => {
                let d = b.constant_value()?;
                if d == 0.0 {
                    None
                } else {
                    Some(a.constant_value()? / d)
                }
            }
        }
    }
}

/// Operand-stack capacity of a [`Postfix`] program.
const POSTFIX_STACK: usize = 16;

/// One instruction of a [`Postfix`] program.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Const(f64),
    /// Push `x[slot] * scale`.
    Load(usize, f64),
    Add,
    Sub,
    Mul,
    Div,
}

/// An [`Expr`] flattened to postfix over scaled slot loads
/// ([`Expr::compile`]): evaluation is one pass over a flat op list on a
/// fixed stack, with no tree walk and no allocation.
///
/// [`Postfix::eval`] is bit-identical to [`Expr::eval`] over an environment
/// returning `x[slot] * scale`: the same operations in the same order, and
/// the same "division by zero yields `0.0`" rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Postfix {
    ops: Vec<Op>,
}

impl Postfix {
    /// Evaluates the program against the slot values `x`.
    ///
    /// # Panics
    ///
    /// Panics if a load slot is out of range of `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let mut stack = [0.0f64; POSTFIX_STACK];
        let mut top = 0;
        for op in &self.ops {
            let v = match *op {
                Op::Const(v) => v,
                Op::Load(slot, scale) => x[slot] * scale,
                op => {
                    top -= 2;
                    let (a, b) = (stack[top], stack[top + 1]);
                    match op {
                        Op::Add => a + b,
                        Op::Sub => a - b,
                        Op::Mul => a * b,
                        _ if b == 0.0 => 0.0,
                        _ => a / b,
                    }
                }
            };
            stack[top] = v;
            top += 1;
        }
        stack[0]
    }
}

impl ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Event(id) => write!(f, "{id}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u16) -> Expr {
        Expr::event(EventId::from_raw(i))
    }

    #[test]
    fn evaluates_arithmetic() {
        let env = vec![2.0, 3.0, 4.0];
        let expr = (e(0) + e(1)) * Expr::konst(2.0) - e(2) / Expr::konst(4.0);
        assert_eq!(expr.eval(&env), 9.0);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let env = vec![5.0, 0.0];
        let expr = e(0) / e(1);
        assert_eq!(expr.eval(&env), 0.0);
    }

    #[test]
    fn collects_events_in_order() {
        let expr = e(3) + e(1) * e(3) + Expr::konst(1.0);
        assert_eq!(
            expr.events(),
            vec![EventId::from_raw(1), EventId::from_raw(3)]
        );
    }

    #[test]
    fn linear_form_of_affine_expression() {
        // 64*a + b - 2 is affine.
        let expr = Expr::konst(64.0) * e(0) + e(1) - Expr::konst(2.0);
        let (c, coeffs) = expr.linear_form().unwrap();
        assert_eq!(c, -2.0);
        assert_eq!(
            coeffs,
            vec![(EventId::from_raw(0), 64.0), (EventId::from_raw(1), 1.0)]
        );
    }

    #[test]
    fn linear_form_merges_repeated_events() {
        let expr = e(0) + e(0) - e(0);
        let (c, coeffs) = expr.linear_form().unwrap();
        assert_eq!(c, 0.0);
        assert_eq!(coeffs, vec![(EventId::from_raw(0), 1.0)]);
    }

    #[test]
    fn product_of_events_is_not_linear() {
        assert!((e(0) * e(1)).linear_form().is_none());
        assert!((e(0) / e(1)).linear_form().is_none());
    }

    #[test]
    fn compiled_program_matches_tree_evaluation() {
        let x = [2.0, 3.0, 0.0];
        let scales = [1.5, 0.5, 4.0];
        let env = |id: EventId| x[id.index()] * scales[id.index()];
        let load = |id: EventId| (id.index(), scales[id.index()]);
        for expr in [
            (e(0) + e(1)) * Expr::konst(2.0) - e(2) / Expr::konst(4.0),
            e(0) / e(2),
            e(0) - (e(1) - (e(2) * (e(0) + Expr::konst(1.0)))),
        ] {
            let got = expr.compile(&load).eval(&x);
            assert_eq!(got.to_bits(), expr.eval(&env).to_bits(), "{expr}");
        }
    }

    #[test]
    fn display_is_parenthesized() {
        let expr = e(0) + e(1);
        assert_eq!(expr.to_string(), "(e0 + e1)");
    }
}
