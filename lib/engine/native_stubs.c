/* Stubs binding the native backend's generated .so files, and the
 * activity engine's native sweep.
 *
 * The generated code (lib/emit/emit_c.ml) exports a per-node-id table of
 * `long (*)(long *, long *, long *)` functions operating on the
 * runtime's three arenas: the narrow int arena, the wide flat mirror
 * (a Bytes.t of raw 64-bit limbs at compile-time offsets) and the
 * wide Bits.t arena
 * (whose limb words the generated code rewrites on change, keeping the
 * mirror and the boxed view identical).  Passing raw heap
 * pointers is sound because the calls are [@@noalloc]: no safepoint is
 * reached while C runs, so neither arena moves.  Function pointers are
 * at least 2-aligned on every supported target, so a pointer can be
 * smuggled through an OCaml `int array` as the word `ptr | 1` — a valid
 * immediate that needs no boxing and no finalizer.  The hot-path stubs
 * below recover the pointer with `word & ~1` and call it; they are safe
 * to run from multiple domains on disjoint arena regions.
 *
 * Three hot-path stubs use the table: one node (`gsim_native_call`), a
 * dense run of nodes (`gsim_native_run`, the full-cycle and parallel
 * engines), and a whole activity sweep (`gsim_activity_sweep`, the gsim
 * and essent engines): examine the active bits, evaluate every member of
 * each active supernode, count changes, mark pending registers and set
 * the successors' active bits, all inside one call per cycle.  After
 * the sweep, `gsim_activity_latch` commits every pending register whose
 * read node is not forcible, narrow or wide, and wakes its readers.
 *
 * Handles are never dlclose()d: realized evaluators capture table
 * entries, and a unit stays reusable for the life of the process (the
 * per-circuit memo in native.ml bounds the leak to one handle per
 * distinct circuit). */

#include <dlfcn.h>
#include <stdint.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

typedef long (*gsim_fn_t)(long *, long *, long *);

CAMLprim value gsim_native_dlopen(value path)
{
  CAMLparam1(path);
  /* Copy the path out of the heap: caml_failwith below may allocate. */
  char buf[4096];
  strncpy(buf, String_val(path), sizeof(buf) - 1);
  buf[sizeof(buf) - 1] = '\0';
  void *h = dlopen(buf, RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err ? err : "dlopen failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

/* Load the generated table into an OCaml int array: element i is the
   tagged function pointer `fn | 1`, or Val_long(0) when node i has no
   native function.  Fails (-> fallback in native.ml) on a missing
   symbol, an ABI version mismatch, or a misaligned function pointer. */
CAMLprim value gsim_native_load_table(value handle, value abi_version)
{
  CAMLparam2(handle, abi_version);
  CAMLlocal1(arr);
  void *h = (void *)Nativeint_val(handle);
  long *abi = (long *)dlsym(h, "gsim_abi_version");
  if (abi == NULL) caml_failwith("gsim_table: missing gsim_abi_version");
  if (*abi != Long_val(abi_version)) caml_failwith("gsim_table: ABI version mismatch");
  long *count = (long *)dlsym(h, "gsim_node_count");
  if (count == NULL) caml_failwith("gsim_table: missing gsim_node_count");
  gsim_fn_t *table = (gsim_fn_t *)dlsym(h, "gsim_table");
  if (table == NULL) caml_failwith("gsim_table: missing gsim_table");
  long n = *count;
  if (n < 0) caml_failwith("gsim_table: negative node count");
  arr = caml_alloc(n, 0);  /* n longs, all immediates: tag 0 array of ints */
  for (long i = 0; i < n; i++) {
    gsim_fn_t fn = table[i];
    if (fn == NULL) {
      Field(arr, i) = Val_long(0);
    } else {
      if (((uintnat)fn & 1) != 0)
        caml_failwith("gsim_table: misaligned function pointer");
      Field(arr, i) = (value)((uintnat)fn | 1);
    }
  }
  CAMLreturn(arr);
}

/* Evaluate one node: `fnw` is a tagged function pointer from the table
   (must be nonzero as an OCaml int); `wflat` is the flat limb mirror
   (a Bytes.t of raw 64-bit limbs), `wide` the Bits.t arena. */
CAMLprim value gsim_native_call(value fnw, value arena, value wflat, value wide)
{
  gsim_fn_t fn = (gsim_fn_t)((uintnat)fnw & ~(uintnat)1);
  return Val_long(fn((long *)arena, (long *)Bytes_val(wflat), (long *)wide));
}

/* Evaluate a dense run of nodes: `fns` is an int array of tagged
   function pointers; returns the summed changed count. */
CAMLprim value gsim_native_run(value fns, value arena, value wflat, value wide)
{
  long total = 0;
  mlsize_t n = Wosize_val(fns);
  long *a = (long *)arena;
  long *wf = (long *)Bytes_val(wflat);
  long *wd = (long *)wide;
  value *f = (value *)fns;
  for (mlsize_t i = 0; i < n; i++)
    total += ((gsim_fn_t)((uintnat)f[i] & ~(uintnat)1))(a, wf, wd);
  return Val_long(total);
}

/* The activity sweep.  Its one argument is Activity's [sweep] record;
   the SW_* indices below are that record's field order.  The arrays
   are OCaml int or bool arrays, read and written as tagged words:
   Val_long(n) is 2n+1, so a mask stored in a table as an OCaml int
   becomes the bits to OR into a tagged word by subtracting 1.

   - words: packed active bits, 62 per word; active: unpacked bits
     (bool per supernode).  [packed] picks the layout.
   - sn: per supernode k, sn[2k] = its first member row, sn[2k+1] = its
     member count.
   - mem: per member row, MEM_STRIDE words: what evaluates it, pending
     register index (-1 = none), activation range [lo, hi) in act, and
     (targets << 1) | branch_free.  The first word is a tagged fn
     pointer; or, as an OCaml int, -(j+1) for narrow memory read j; or
     0 for a member OCaml must evaluate (forcible, or neither of those).
   - reads: per narrow memory read, RD_STRIDE words: memory index (into
     mems, the runtime's narrow memory arrays), address node, enable
     node (-1 = none), depth, and the node it writes.
   - act: packed: (word index, mask) pairs; unpacked: supernode indices.
   - hits: per-supernode evaluation counts.
   - regs: per register, REG_STRIDE words: read node (-1 = forcible,
     latched by OCaml), next node, activation range [lo, hi) in act,
     target count, then the read and next nodes' flat mirror offsets
     (read offset -1 = narrow) and the width; read by the latch
     (gsim_activity_latch below).
   - pending / pending_stack: the register latch set (bool array and
     its stack); state[ST_PLEN] carries the stack length in and out.
   - state: ST_POS is -1 to start a sweep.  After a yield it holds the
     position to resume at (packed: the word, whose exam is already
     counted; unpacked: the supernode), and ST_ROW / ST_END the rest of
     that supernode's rows.  The counter deltas of the call are written
     to ST_EXAMS..ST_ACTS on return.

   Returns the row of a member for OCaml to evaluate (the sweep resumes
   after it on the next call), or -1 when no active bit is left. */

#define SW_WORDS 0
#define SW_ACTIVE 1
#define SW_PACKED 2
#define SW_SN 3
#define SW_MEM 4
#define SW_ACT 5
#define SW_HITS 6
#define SW_PENDING 7
#define SW_PSTACK 8
#define SW_STATE 9
#define SW_ARENA 10
#define SW_WFLAT 11
#define SW_WIDE 12
#define SW_READS 13
#define SW_MEMS 14
#define SW_REGS 15

#define ST_POS 0
#define ST_ROW 1
#define ST_END 2
#define ST_PLEN 3
#define ST_EXAMS 4
#define ST_EVALS 5
#define ST_CHANGED 6
#define ST_ACTS 7
#define ST_COMMITS 8

#define MEM_STRIDE 5
#define RD_STRIDE 5
#define REG_STRIDE 8
#define WORD_BITS 62

struct sweep {
  value *words, *active, *mem, *act, *pending, *pstack, *reads, *mems;
  long *arena, *wflat, *wide;
  long plen, changed, acts;
  int packed;
};

/* Narrow memory read j, as Runtime.node_evaluator does it: the word at
   the address when enabled and in range, else 0.  Reports change. */
static inline long mem_read(struct sweep *s, long j)
{
  value *r = s->reads + j * RD_STRIDE;
  long addr = Long_val(s->arena[Long_val(r[1])]);
  long en = Long_val(r[2]);
  long v = Val_long(0);
  if ((en < 0 || s->arena[en] != Val_long(0)) && addr < Long_val(r[3]))
    v = Op_val(s->mems[Long_val(r[0])])[addr];
  long id = Long_val(r[4]);
  if (s->arena[id] == v) return 0;
  s->arena[id] = v;
  return 1;
}

/* Set the active bits of act[lo, hi): (word, mask) pairs or supernodes. */
static inline void activate(struct sweep *s, long lo, long hi)
{
  if (s->packed)
    for (long i = lo; i < hi; i += 2)
      s->words[Long_val(s->act[i])] |= (uintnat)s->act[i + 1] - 1;
  else
    for (long i = lo; i < hi; i++)
      s->active[Long_val(s->act[i])] = Val_true;
}

/* Run member rows [m, end) of one supernode, applying each member's
   effects exactly as Activity's fused step closures do.  Returns the
   first row OCaml must evaluate, or -1 once all rows ran. */
static inline long sweep_members(struct sweep *s, long m, long end)
{
  for (; m < end; m++) {
    value *e = s->mem + m * MEM_STRIDE;
    long f = Long_val(e[0]);
    if (f == 0) return m;
    long ch;
    if (f > 0) {
      gsim_fn_t fn = (gsim_fn_t)((uintnat)e[0] & ~(uintnat)1);
      ch = fn(s->arena, s->wflat, s->wide) != 0;
    } else {
      ch = mem_read(s, -f - 1);
    }
    long info = Long_val(e[4]);
    long lo = Long_val(e[2]), hi = Long_val(e[3]);
    if (info & 1) {
      /* Branch-free: the masked updates run whether or not it changed. */
      uintnat msk = -(uintnat)ch;
      if (s->packed)
        for (long i = lo; i < hi; i += 2)
          s->words[Long_val(s->act[i])] |= ((uintnat)s->act[i + 1] - 1) & msk;
      else
        for (long i = lo; i < hi; i++)
          s->active[Long_val(s->act[i])] |= (value)(ch << 1);
    }
    if (ch) {
      s->changed++;
      s->acts += info >> 1;
      long r = Long_val(e[1]);
      if (r >= 0 && s->pending[r] == Val_false) {
        s->pending[r] = Val_true;
        s->pstack[s->plen++] = Val_long(r);
      }
      if (!(info & 1)) activate(s, lo, hi);
    }
  }
  return -1;
}

CAMLprim value gsim_activity_sweep(value sw)
{
  value *state = Op_val(Field(sw, SW_STATE));
  value *sn = Op_val(Field(sw, SW_SN));
  value *hits = Op_val(Field(sw, SW_HITS));
  struct sweep s = {
    .words = Op_val(Field(sw, SW_WORDS)),
    .active = Op_val(Field(sw, SW_ACTIVE)),
    .mem = Op_val(Field(sw, SW_MEM)),
    .act = Op_val(Field(sw, SW_ACT)),
    .pending = Op_val(Field(sw, SW_PENDING)),
    .pstack = Op_val(Field(sw, SW_PSTACK)),
    .reads = Op_val(Field(sw, SW_READS)),
    .mems = Op_val(Field(sw, SW_MEMS)),
    .arena = (long *)Field(sw, SW_ARENA),
    .wflat = (long *)Bytes_val(Field(sw, SW_WFLAT)),
    .wide = (long *)Field(sw, SW_WIDE),
    .plen = Long_val(state[ST_PLEN]),
    .changed = 0,
    .acts = 0,
    .packed = Bool_val(Field(sw, SW_PACKED)),
  };
  long nsuper = (long)(Wosize_val(Field(sw, SW_SN)) / 2);
  long pos = Long_val(state[ST_POS]);
  long exams = 0, evals = 0, row = -1, end = 0;
  long i = 0;
  int resumed = pos >= 0;

  if (resumed) {
    /* Finish the supernode the last call yielded in. */
    i = pos;
    end = Long_val(state[ST_END]);
    row = sweep_members(&s, Long_val(state[ST_ROW]), end);
    if (row >= 0) goto out;
    if (!s.packed) i++;
  }

  if (s.packed) {
    long nwords = (long)Wosize_val(Field(sw, SW_WORDS));
    for (;;) {
      for (; i < nwords; i++) {
        /* One condition examines a whole word; a resumed word's exam
           was counted before the yield. */
        if (!resumed) exams++;
        resumed = 0;
        long w;
        while ((w = Long_val(s.words[i])) != 0) {
          long k = i * WORD_BITS + __builtin_ctzl((unsigned long)w);
          exams++;
          s.words[i] = Val_long(w & (w - 1));
          long first = Long_val(sn[2 * k]), n = Long_val(sn[2 * k + 1]);
          hits[k] += 2;
          evals += n;
          end = first + n;
          row = sweep_members(&s, first, end);
          if (row >= 0) goto out;
        }
      }
      /* A backward activation (possible only with a non-schedulable
         partition) leaves bits set; re-sweep until stable. */
      int leftover = 0;
      for (long j = 0; j < nwords; j++) leftover |= s.words[j] != Val_long(0);
      if (!leftover) break;
      i = 0;
    }
  } else {
    for (;;) {
      for (; i < nsuper; i++) {
        exams++;
        if (s.active[i] != Val_false) {
          s.active[i] = Val_false;
          long first = Long_val(sn[2 * i]), n = Long_val(sn[2 * i + 1]);
          hits[i] += 2;
          evals += n;
          end = first + n;
          row = sweep_members(&s, first, end);
          if (row >= 0) goto out;
        }
      }
      int leftover = 0;
      for (long j = 0; j < nsuper; j++) leftover |= s.active[j] != Val_false;
      if (!leftover) break;
      i = 0;
    }
  }
out:
  state[ST_POS] = Val_long(row < 0 ? -1 : i);
  state[ST_ROW] = Val_long(row + 1);
  state[ST_END] = Val_long(end);
  state[ST_PLEN] = Val_long(s.plen);
  state[ST_EXAMS] = Val_long(exams);
  state[ST_EVALS] = Val_long(evals);
  state[ST_CHANGED] = Val_long(s.changed);
  state[ST_ACTS] = Val_long(s.acts);
  return Val_long(row);
}

/* A wide register's latch, as Runtime.reg_copier does it: compare and
   copy the n raw 64-bit limbs of its next node (flat mirror offset noff)
   into its read node's (roff).  On change, also rewrite the read node's
   boxed Bits.t limb words (wide[id] points to a record whose field 1 is
   the array of tagged 31-bit limbs), exactly as the generated
   gsim_wstore does, so peeks, checkpoints and the closures see the same
   value.  Reports change. */
static inline long wide_latch(long *wflat, long *wide, long id, long roff,
                              long noff, long w)
{
  uint64_t *p = (uint64_t *)wflat + roff;
  const uint64_t *v = (const uint64_t *)wflat + noff;
  long n = (w + 63) / 64, ch = 0;
  for (long i = 0; i < n; i++)
    if (p[i] != v[i]) { p[i] = v[i]; ch = 1; }
  if (ch) {
    long *q = (long *)((long *)wide[id])[1];
    long n31 = (w + 30) / 31;
    for (long k = 0; k < n31; k++) {
      long pbit = 31 * k, j = pbit >> 6, sh = pbit & 63;
      uint64_t lo = v[j] >> sh;
      uint64_t hi = (sh > 33 && j + 1 < n) ? v[j + 1] << (64 - sh) : 0;
      q[k] = (long)((((lo | hi) & UINT64_C(0x7FFFFFFF)) << 1) | 1);
    }
  }
  return ch;
}

/* The register latch that follows the sweep: pops the pending stack
   (state[ST_PLEN] entries) from state[ST_POS] on.  Every register whose
   read node is not forcible latches here, narrow (read := next in the
   int arena) or wide (wide_latch), and on change its read node's
   consumers are activated.  A forcible register (regs row read = -1),
   whose latch must re-apply the override, is returned for OCaml to
   latch, with ST_POS set past it.  Returns -1 once the stack is
   drained; the deltas of reg_commits and activations are written to
   ST_COMMITS / ST_ACTS. */
CAMLprim value gsim_activity_latch(value sw)
{
  value *state = Op_val(Field(sw, SW_STATE));
  value *regs = Op_val(Field(sw, SW_REGS));
  long *wflat = (long *)Bytes_val(Field(sw, SW_WFLAT));
  long *wide = (long *)Field(sw, SW_WIDE);
  struct sweep s = {
    .words = Op_val(Field(sw, SW_WORDS)),
    .active = Op_val(Field(sw, SW_ACTIVE)),
    .act = Op_val(Field(sw, SW_ACT)),
    .pending = Op_val(Field(sw, SW_PENDING)),
    .pstack = Op_val(Field(sw, SW_PSTACK)),
    .arena = (long *)Field(sw, SW_ARENA),
    .packed = Bool_val(Field(sw, SW_PACKED)),
  };
  long plen = Long_val(state[ST_PLEN]);
  long commits = 0, acts = 0, yield = -1;
  long i = Long_val(state[ST_POS]);
  for (; i < plen; i++) {
    long ri = Long_val(s.pstack[i]);
    value *r = regs + ri * REG_STRIDE;
    s.pending[ri] = Val_false;
    long read = Long_val(r[0]);
    if (read < 0) {
      yield = ri;
      i++;
      break;
    }
    long roff = Long_val(r[5]);
    long ch;
    if (roff >= 0) {
      ch = wide_latch(wflat, wide, read, roff, Long_val(r[6]), Long_val(r[7]));
    } else {
      long v = s.arena[Long_val(r[1])];
      ch = s.arena[read] != v;
      s.arena[read] = v;
    }
    if (ch) {
      commits++;
      acts += Long_val(r[4]);
      activate(&s, Long_val(r[2]), Long_val(r[3]));
    }
  }
  state[ST_POS] = Val_long(i);
  state[ST_COMMITS] = Val_long(commits);
  state[ST_ACTS] = Val_long(acts);
  return Val_long(yield);
}
