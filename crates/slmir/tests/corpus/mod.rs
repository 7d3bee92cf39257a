//! The conditioned SLM-C corpus shared by the elaboration property
//! suite and the hostile-source robustness suite.

/// Conditioned SLM-C programs exercising distinct language features. Each
/// entry is (source, entry function).
pub const CORPUS: &[(&str, &str)] = &[
    (
        "uint8 mix(uint8 a, uint8 b) { return (a ^ b) + (a & b) * 2; }",
        "mix",
    ),
    (
        r#"uint<9> addsat(uint8 a, uint8 b) {
            uint<9> s = (uint<9>) a + (uint<9>) b;
            if (s > 300) { return 300; }
            return s;
        }"#,
        "addsat",
    ),
    (
        r#"int8 clamp(int8 x, int8 lo, int8 hi) {
            if (x < lo) { return lo; }
            if (x > hi) { return hi; }
            return x;
        }"#,
        "clamp",
    ),
    (
        r#"uint32 sumn(uint8 n) {
            uint32 acc = 0;
            for (int i = 0; i < 16; i++) {
                if (i >= n) break;
                acc += i * i;
            }
            return acc;
        }"#,
        "sumn",
    ),
    (
        r#"uint8 parity_fold(uint16 v) {
            uint8 p = 0;
            for (int i = 0; i < 16; i++) {
                p ^= (uint8)((v >> i) & 1);
            }
            return p;
        }"#,
        "parity_fold",
    ),
    (
        r#"uint8 helper(uint8 x) { return x * 3 + 1; }
        uint8 chained(uint8 a) { return helper(helper(a)); }"#,
        "chained",
    ),
    (
        r#"void minmax(uint8 xs[4], out uint8 mn, out uint8 mx) {
            mn = xs[0];
            mx = xs[0];
            for (int i = 1; i < 4; i++) {
                if (xs[i] < mn) { mn = xs[i]; }
                if (xs[i] > mx) { mx = xs[i]; }
            }
        }"#,
        "minmax",
    ),
    (
        r#"uint8 table_lookup(uint8 sel, uint8 base) {
            uint8 lut[8];
            for (int i = 0; i < 8; i++) { lut[i] = base + i * 7; }
            return lut[sel];
        }"#,
        "table_lookup",
    ),
    (
        r#"int32 divmod(int8 a, int8 b) {
            int t = a / (b | 1);
            int r = a % (b | 1);
            return t * 256 + r;
        }"#,
        "divmod",
    ),
    (
        r#"uint16 shifts(uint16 v, uint8 s) {
            uint16 l = v << (s & 15);
            uint16 r = v >> (s & 15);
            int16 ar = (int16) v >> (s & 7);
            return l ^ r ^ (uint16) ar;
        }"#,
        "shifts",
    ),
    (
        r#"uint8 ternaries(uint8 a, uint8 b) {
            return a > b ? a - b : (a == b ? 0 : b - a);
        }"#,
        "ternaries",
    ),
    (
        r#"uint32 nested(uint8 a) {
            uint32 acc = 0;
            for (int i = 0; i < 4; i++) {
                for (int j = 0; j <= i; j++) {
                    if ((uint32)(i * 4 + j) == (uint32) a) { continue; }
                    acc += 1;
                }
            }
            return acc;
        }"#,
        "nested",
    ),
    (
        // `x` is an array in one branch and a scalar in the other: a
        // variable's kind follows the declaration in scope.
        r#"uint8 scoped_kinds(uint8 a) {
            uint8 r = 0;
            if (a < 2) { uint8 x[4]; x[1] = a; r = x[1]; }
            else       { uint8 x = a + 1; r = x; }
            return r;
        }"#,
        "scoped_kinds",
    ),
    (
        // `?:` converts both arms to their common type (C's rule), even
        // the arm that does not run: each test below is false in C. The
        // second condition is decided at run time on every input, the
        // third statically.
        r#"int mixed_arms(int a, uint32 b, bool c) {
            int r = 0;
            if ((c ? a : b) < 0) { r = r + 1; }
            if (((b | 1) != 0 ? a | (int) 0x80000000 : b) < 0) { r = r + 2; }
            if ((1 ? -1 : b) < 0) { r = r + 4; }
            uint8 n = (uint8) a;
            return r * 1000 + -(c ? n : n);
        }"#,
        "mixed_arms",
    ),
];
