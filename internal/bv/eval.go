package bv

import "fmt"

// Env supplies concrete values for the free variables (and uninterpreted
// applications) of a term during evaluation.
type Env struct {
	// Vars maps variable names to values.
	Vars map[string]uint64
	// Apps, when non-nil, maps an application (by function name and
	// concrete argument values) to its value; when nil, applications are
	// evaluated by a deterministic mixing hash, which respects functional
	// consistency (identical inputs give identical outputs) exactly as the
	// paper's treatment of uninterpreted multiplication requires.
	Apps map[string]uint64
}

// appKey builds the lookup key for an application with concrete args.
func appKey(name string, args []uint64) string {
	k := name
	for _, a := range args {
		k += fmt.Sprintf(":%x", a)
	}
	return k
}

// Eval computes the concrete value of t under env, memoising on term
// identity.
func Eval(t *Term, env *Env) uint64 {
	memo := map[*Term]uint64{}
	return eval(t, env, memo)
}

func eval(t *Term, env *Env, memo map[*Term]uint64) uint64 {
	if v, ok := memo[t]; ok {
		return v
	}
	var v uint64
	switch t.Op {
	case OpConst:
		v = t.Val
	case OpVar:
		v = env.Vars[t.Name] & mask(t.Width)
	case OpApp:
		args := make([]uint64, len(t.Args))
		for i, a := range t.Args {
			args[i] = eval(a, env, memo)
		}
		k := appKey(t.Name, args)
		if env.Apps != nil {
			v = env.Apps[k] & mask(t.Width)
		} else {
			v = mixHash(k) & mask(t.Width)
		}
	case OpNot:
		v = ^eval(t.Args[0], env, memo)
	case OpAnd:
		v = eval(t.Args[0], env, memo) & eval(t.Args[1], env, memo)
	case OpOr:
		v = eval(t.Args[0], env, memo) | eval(t.Args[1], env, memo)
	case OpXor:
		v = eval(t.Args[0], env, memo) ^ eval(t.Args[1], env, memo)
	case OpNeg:
		v = -eval(t.Args[0], env, memo)
	case OpAdd:
		v = eval(t.Args[0], env, memo) + eval(t.Args[1], env, memo)
	case OpSub:
		v = eval(t.Args[0], env, memo) - eval(t.Args[1], env, memo)
	case OpMul:
		v = eval(t.Args[0], env, memo) * eval(t.Args[1], env, memo)
	case OpShl:
		a := eval(t.Args[0], env, memo)
		c := eval(t.Args[1], env, memo) & mask(t.Args[1].Width)
		if c >= uint64(t.Width) {
			v = 0
		} else {
			v = a << c
		}
	case OpLshr:
		a := eval(t.Args[0], env, memo) & mask(t.Width)
		c := eval(t.Args[1], env, memo) & mask(t.Args[1].Width)
		if c >= uint64(t.Width) {
			v = 0
		} else {
			v = a >> c
		}
	case OpAshr:
		a := eval(t.Args[0], env, memo) & mask(t.Width)
		c := eval(t.Args[1], env, memo) & mask(t.Args[1].Width)
		sign := a >> (t.Width - 1) & 1
		if c >= uint64(t.Width) {
			if sign == 1 {
				v = mask(t.Width)
			}
		} else {
			v = a >> c
			if sign == 1 {
				v |= mask(t.Width) &^ (mask(t.Width) >> c)
			}
		}
	case OpExtract:
		v = eval(t.Args[0], env, memo) >> t.Lo
	case OpConcat:
		hi := eval(t.Args[0], env, memo) & mask(t.Args[0].Width)
		lo := eval(t.Args[1], env, memo) & mask(t.Args[1].Width)
		v = hi<<t.Args[1].Width | lo
	case OpZext:
		v = eval(t.Args[0], env, memo) & mask(t.Args[0].Width)
	case OpSext:
		a := eval(t.Args[0], env, memo) & mask(t.Args[0].Width)
		if a>>(t.Args[0].Width-1)&1 == 1 {
			a |= mask(t.Width) &^ mask(t.Args[0].Width)
		}
		v = a
	case OpEq:
		a := eval(t.Args[0], env, memo) & mask(t.Args[0].Width)
		c := eval(t.Args[1], env, memo) & mask(t.Args[1].Width)
		if a == c {
			v = 1
		}
	case OpUlt:
		a := eval(t.Args[0], env, memo) & mask(t.Args[0].Width)
		c := eval(t.Args[1], env, memo) & mask(t.Args[1].Width)
		if a < c {
			v = 1
		}
	case OpIte:
		if eval(t.Args[0], env, memo)&1 == 1 {
			v = eval(t.Args[1], env, memo)
		} else {
			v = eval(t.Args[2], env, memo)
		}
	default:
		panic(fmt.Sprintf("bv: eval of op %d", t.Op))
	}
	v &= mask(t.Width)
	memo[t] = v
	return v
}

// mixHash is a deterministic 64-bit string hash (FNV-1a with avalanche).
func mixHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
