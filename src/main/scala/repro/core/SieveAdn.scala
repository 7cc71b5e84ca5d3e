package repro.core

import scala.collection.mutable
import repro.tdn.{Tdn, TimedEdge}

/** SieveADN (Alg. 1): streaming influence maximization over an addition-only
  * dynamic interaction network, with a (1/2 − ε) approximation guarantee.
  *
  * An instance is a graph, a cutoff, Δ and its sieves. It views the edges of
  * `graph` whose expiry is ≥ `cutoff`. A stand-alone instance owns its graph
  * and has cutoff −∞: the ADN view, where edges only arrive. Inside
  * BasicReduction and HistApprox every instance shares the tracker's TDN graph
  * as the cutoff t + l of its index l (see [[InstanceListTracker]]); those
  * trackers terminate whole instances instead of deleting edges.
  *
  * Mechanics per batch Ē_t of edges new to the instance's view:
  *  1. the edges are in the graph (the stand-alone [[process]] inserts them);
  *  2. compute the candidate set V̄_t = nodes whose influence spread changed:
  *     for the inserted edges (u,v), every v plus every node that can reach
  *     some u, found by one reverse search from all the u's;
  *  3. evaluate f({v}) for each candidate (one oracle call each), keeping
  *     reach(v) as a list of nodes, updating
  *     Δ = max singleton spread, and slide the threshold window
  *     Θ = {(1+ε)^i/(2k) : (1+ε)^i ∈ [Δ, 2kΔ]} (Alg. 1 lines 4–7). The sieves
  *     are held as runs: a run is a range of consecutive exponents [a, b]
  *     whose sieves hold the same S, kept as one [[SieveAdn.Sieve]] tagged
  *     with a, in ascending order up to the window's top exponent. As Δ
  *     grows, runs below the new low end drop, the first is trimmed to it,
  *     and the empty sieves opening above join an empty last run;
  *  4. update every run's cached reach(S_θ)/f(S_θ) *incrementally*, once per
  *     run: a new edge (u,v) extends reach(S) iff u ∈ reach(S), in which case
  *     reach(S) ∪= reach(v) — the candidate reach-sets from step 3 are reused,
  *     so this is exact set algebra with no further oracle calls;
  *  5. sieve each candidate into every non-full threshold set whose θ its
  *     marginal gain |reach(v) \ reach(S)| meets (Alg. 1 lines 8–11). The
  *     gain is counted over the list once per run, and acceptance is monotone
  *     in θ, so the run [a, b] splits at the highest exponent m whose ⌈θ_m⌉
  *     the gain meets: [a, m] takes v, [m+1, b] keeps a copy of the old S. A
  *     run still counts one oracle call per sieve it stands for, the
  *     evaluations Alg. 1 makes.
  *
  * The oracle-call ledger therefore counts exactly the f evaluations the
  * paper's complexity analysis counts: O(b · ε⁻¹ log k) per batch (Theorem 3),
  * by [[OracleCounter]]'s rule.
  */
final class SieveAdn private[core] (
    val k: Int,
    val eps: Double,
    val counter: OracleCounter,
    val graph: Digraph,
    val cutoff: Int,
) {
  require(k >= 1, "k must be >= 1")
  require(eps > 0 && eps < 1, "eps must be in (0,1)")

  def this(k: Int, eps: Double, universe: Int, counter: OracleCounter) =
    this(k, eps, counter, new Digraph(universe), Int.MinValue)

  import SieveAdn.Sieve

  val universe: Int        = graph.universe
  private var deltaMax: Int = 0 // Δ: max singleton spread seen
  // Runs ascending: runs(j) is S_θi for every exponent i from runs(j).first
  // up to last(j).
  private val runs    = mutable.ArrayBuffer.empty[Sieve]
  private var top     = 0 // the window's highest exponent
  private val logBase = math.log1p(eps)

  /** ⌈θ_i⌉ for θ_i = (1+ε)^i / (2k): the least gain sieve i accepts. */
  private def need(i: Int): Int = math.ceil(math.pow(1.0 + eps, i) / (2.0 * k)).toInt

  /** The highest exponent of run j. */
  private def last(j: Int): Int = if (j + 1 < runs.length) runs(j + 1).first - 1 else top

  /** Largest exponent i with (1+ε)^i ≤ x. */
  private def floorExp(x: Double): Int = math.floor(math.log(x) / logBase + 1e-9).toInt

  /** Alg. 1 lines 5–7: slide the window to the exponents i with
    * (1+ε)^i ∈ [Δ, 2kΔ], keeping the sieves of exponents still inside it.
    * Δ only grows, so both ends only rise: the runs wholly below the new low
    * end drop, the first is trimmed to it, and the exponents above the old
    * top join the last run if it is empty, or open an empty run otherwise.
    */
  private def refreshThresholds(): Unit = {
    if (deltaMax <= 0) return
    val lo = math.ceil(math.log(deltaMax.toDouble) / logBase - 1e-9).toInt
    val hi = floorExp(2.0 * k * deltaMax)
    var d  = 0
    while (d < runs.length && last(d) < lo) d += 1
    runs.remove(0, d)
    if (runs.isEmpty) runs += new Sieve(k, lo)
    else {
      runs(0).first = lo
      if (hi > top && runs.last.size > 0) runs += new Sieve(k, top + 1)
    }
    top = hi
  }

  /** Candidate set V̄, ascending: for each newly inserted edge (us(e), vs(e)),
    * the head plus every node that can reach the tail (their spread grew).
    * Computed on the post-insert graph by one reverse search from every tail;
    * reverse BFS is bookkeeping, not an oracle call.
    */
  private def candidates(us: Array[Int], vs: Array[Int]): Array[Int] = {
    val reached = graph.reverseReachOf(us, cutoff)
    val all     = java.util.Arrays.copyOf(reached, reached.length + vs.length)
    System.arraycopy(vs, 0, all, reached.length, vs.length)
    java.util.Arrays.sort(all)
    var n = 0
    var i = 0
    while (i < all.length) {
      if (n == 0 || all(n - 1) != all(i)) { all(n) = all(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(all, n)
  }

  /** Process one batch of arriving edges into a stand-alone instance's own
    * graph (the ADN view: additions only). A batch with an edge outside the
    * universe changes nothing.
    */
  def process(batch: Seq[(Int, Int)]): Unit = {
    require(cutoff == Int.MinValue, "only a stand-alone instance adds edges to its graph")
    batch.foreach { case (u, v) => graph.checkEdge(u, v) }
    val inserted = batch.filter { case (u, v) => graph.addEdge(u, v) }
    update(inserted.map(_._1).toArray, inserted.map(_._2).toArray)
  }

  /** Feed the edges of a batch just added to the shared graph that this
    * instance has not seen and now sees.
    */
  private[core] def feed(arrivals: Array[SieveAdn.Arrival]): Unit = {
    var n = 0
    var i = 0
    while (i < arrivals.length) { if (sees(arrivals(i))) n += 1; i += 1 }
    if (n > 0) {
      val us = new Array[Int](n)
      val vs = new Array[Int](n)
      var e  = 0
      i = 0
      while (i < arrivals.length) {
        val a = arrivals(i)
        if (sees(a)) { us(e) = a.u; vs(e) = a.v; e += 1 }
        i += 1
      }
      update(us, vs)
    }
  }

  private def sees(a: SieveAdn.Arrival): Boolean = a.before < cutoff && cutoff <= a.after

  /** Steps 2–5 for the inserted edges (us(e), vs(e)): edges without
    * self-loops that are in the graph with expiry ≥ `cutoff` and were not
    * visible before, taken as a set: their order and repeats change nothing.
    * No edges, no work.
    */
  private[core] def update(us: Array[Int], vs: Array[Int]): Unit = {
    if (us.isEmpty) return
    val cand = candidates(us, vs)

    // Δ update (Alg. 1 line 4) — f({v}) for each candidate, one call each;
    // the reach-sets, parallel to `cand`, are retained for the incremental
    // update and sieving pass.
    val candReach = new Array[Array[Int]](cand.length)
    var c         = 0
    while (c < cand.length) {
      counter.inc()
      candReach(c) = graph.reachOf(cand(c), cutoff)
      if (candReach(c).length > deltaMax) deltaMax = candReach(c).length
      c += 1
    }
    refreshThresholds()

    // Exact incremental maintenance of cached reach(S_θ)/f(S_θ): any path
    // from S to a newly reachable node crosses a first inserted edge (u,v)
    // whose source u was already in the old reach(S), and reach(v) on the
    // post-insert graph is transitively complete — so a single sweep adding
    // candidate reach-sets is exact. An edge whose v is already in reach(S)
    // adds nothing the sweep misses: v was either added with a complete
    // reach-set holding reach(v), or was in the old reach(S), where the
    // first inserted edge on each of v's new paths is swept in its turn.
    // Set algebra only, no oracle calls. Each v's reach-set is looked up in
    // `cand` once per update, not once per sieve.
    val vReach = new Array[Array[Int]](vs.length)
    var e      = 0
    while (e < vs.length) { vReach(e) = candReach(java.util.Arrays.binarySearch(cand, vs(e))); e += 1 }
    var j = 0
    while (j < runs.length) {
      val s = runs(j)
      if (s.size > 0) {
        e = 0
        while (e < us.length) {
          if (s.has(us(e)) && !s.has(vs(e))) s.add(vReach(e))
          e += 1
        }
      }
      j += 1
    }

    // Sieving pass (Alg. 1 lines 8–11): one oracle call per marginal gain,
    // |r \ reach(S)| counted over the candidate's reach-set r against the
    // integer threshold ⌈θ⌉. The sieves of a run hold one S, so the gain is
    // counted once per run, up to the largest ⌈θ⌉ evaluated and only while it
    // can still meet the smallest; the call count stays one per sieve.
    // Submodularity pruning: δ_S(v) ≤ f({v}), so thresholds above f({v})
    // are guaranteed rejections — skip them without an oracle call.
    c = 0
    while (c < cand.length) {
      val v  = cand(c)
      val rv = candReach(c)
      val hv = floorExp(2.0 * k * rv.length)
      var j  = 0
      while (j < runs.length && runs(j).first <= hv) {
        val s = runs(j)
        val a = s.first
        val b = math.min(last(j), hv)
        if (s.size < k && !s.contains(v)) {
          counter.add(b - a + 1)
          val least = need(a)
          val g     = s.gain(v, rv, need(b), least)
          if (g >= least) {
            // Acceptance is monotone in θ: [a, m] takes v, the rest keeps S.
            var m = b
            while (need(m) > g) m -= 1
            if (m < last(j)) {
              val rest = s.copySieve()
              rest.first = m + 1
              runs.insert(j + 1, rest)
              j += 1
            }
            s.accept(v, rv)
          }
        }
        j += 1
      }
      c += 1
    }

    // A run that took the same candidates, in the same order, as the run
    // below it holds the same S again: merge it into that run.
    j = runs.length - 1
    while (j > 0) {
      if (runs(j).sameMembers(runs(j - 1))) runs.remove(j)
      j -= 1
    }
  }

  /** g = f(S_{θ*}): value of the best sieve set (Alg. 1 line 12). Cached
    * values are maintained exactly, so this is free of oracle calls.
    */
  def currentValue: Int = {
    var best = 0
    var j    = 0
    while (j < runs.length) { if (runs(j).value > best) best = runs(j).value; j += 1 }
    best
  }

  /** The best sieve set S_{θ*}; ties go to the lowest θ. */
  def solution: Seq[Int] =
    if (runs.isEmpty) Nil else runs.maxBy(_.value).seeds

  /** Number of live threshold sets |Θ| (for complexity tests). */
  def thresholdCount: Int = if (runs.isEmpty) 0 else top - runs(0).first + 1

  /** Number of runs holding the |Θ| sieves. */
  private[core] def runCount: Int = runs.length

  /** Each live exponent i, ascending, with the members of S_θi. */
  private[core] def seedsByExponent: Seq[(Int, Seq[Int])] =
    runs.indices.flatMap(j => (runs(j).first to last(j)).map(i => (i, runs(j).seeds)))

  /** Current Δ (max singleton spread observed). */
  def delta: Int = deltaMax

  /** A new instance over the same graph and oracle counter at a lower
    * `cutoff`, starting from this one's Δ and sieves — HistApprox instance
    * creation, and BasicReduction's run split. It has yet to be fed the
    * edges with expiry in [cutoff, this.cutoff), of which a split has none.
    */
  private[core] def copyInstance(cutoff: Int): SieveAdn = {
    require(cutoff < this.cutoff, s"copy cutoff $cutoff must be below ${this.cutoff}")
    val c = new SieveAdn(k, eps, counter, graph, cutoff)
    c.deltaMax = deltaMax
    c.runs ++= runs.map(_.copySieve())
    c.top = top
    c
  }
}

object SieveAdn {

  /** A distinct non-loop edge of a batch just added to a shared graph, with
    * its graph expiry before and after the addition: an instance with cutoff
    * f had not seen it and now does iff before < f ≤ after.
    */
  private[core] final case class Arrival(u: Int, v: Int, before: Int, after: Int)

  /** Add `batch`, which has passed [[Tdn.check]], to `tdn`, whose live graph
    * is `graph`, and return its arrivals.
    */
  private[core] def addTo(tdn: Tdn, graph: Digraph, batch: Seq[TimedEdge]): Array[Arrival] = {
    val pairs  = batch.iterator.filter(e => e.u != e.v).map(e => (e.u, e.v)).distinct.toArray
    val before = pairs.map { case (u, v) => graph.expiryOf(u, v) }
    tdn.add(batch)
    pairs.zip(before).map { case ((u, v), b) => Arrival(u, v, b, graph.expiryOf(u, v)) }
  }

  /** A run's sieve set S_θ, members(0 until size), with exactly-maintained
    * f(S_θ) = value = |reach(S_θ)|, for the exponents from `first` up to the
    * next run's. reach(S_θ) is held as bit words (see [[Digraph.has]]) that
    * end at the word of the highest node reached: a union that reaches past
    * them lengthens them once, to exactly that word.
    */
  private[core] final class Sieve(k: Int, var first: Int) {
    val members = new Array[Int](k)
    var size    = 0
    var words   = Array.emptyLongArray
    var value   = 0

    def seeds: Seq[Int] = members.take(size).toSeq

    def contains(v: Int): Boolean = {
      var i = 0
      while (i < size && members(i) != v) i += 1
      i < size
    }

    def sameMembers(o: Sieve): Boolean =
      value == o.value && java.util.Arrays.equals(members, 0, size, o.members, 0, o.size)

    /** Whether v ∈ reach(S). */
    def has(v: Int): Boolean = Digraph.has(words, v)

    /** δ_S(v) = |r \ reach(S)| for v's reach-set r, counted only up to `cap`
      * and only while it can still reach `floor`: below `floor`, the result
      * is some count under it. A v in reach(S) has all of r there.
      */
    def gain(v: Int, r: Array[Int], cap: Int, floor: Int): Int = {
      if (has(v)) return 0
      val n = r.length
      var g = 0
      var i = 0
      while (i < n && g < cap && g + n - i >= floor) {
        if (!has(r(i))) g += 1
        i += 1
      }
      g
    }

    /** reach(S) ∪= r, keeping `value` exact. */
    def add(r: Array[Int]): Unit = {
      words = Digraph.fit(words, r)
      value += Digraph.addAll(r, words)
    }

    /** Take v, with reach-set r, into S. */
    def accept(v: Int, r: Array[Int]): Unit = {
      members(size) = v
      size += 1
      add(r)
    }

    def copySieve(): Sieve = {
      val s = new Sieve(members.length, first)
      System.arraycopy(members, 0, s.members, 0, size)
      s.size = size
      s.words = words.clone()
      s.value = value
      s
    }
  }
}
