package repro.core

import java.util.{BitSet => JBitSet}
import repro.tdn.{Tdn, TimedEdge}

/** SieveADN (Alg. 1): streaming influence maximization over an addition-only
  * dynamic interaction network, with a (1/2 − ε) approximation guarantee.
  *
  * An instance is a graph, a cutoff, Δ and its sieves. It views the edges of
  * `graph` whose expiry is ≥ `cutoff`. A stand-alone instance owns its graph
  * and has cutoff −∞: the ADN view, where edges only arrive. Inside
  * BasicReduction and HistApprox every instance shares the tracker's TDN graph
  * (see [[repro.tdn.Tdn]]): at time t the instance with index l has processed
  * exactly the alive edges with remaining lifetime ≥ l, which is the fixed
  * cutoff t + l, since index and remaining lifetimes drop together. Those
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
  *     Θ = {(1+ε)^i/(2k) : (1+ε)^i ∈ [Δ, 2kΔ]} (Alg. 1 lines 4–7): one sieve
  *     per exponent i, held contiguously from the window's low end; as Δ
  *     grows, sieves below the new low end drop and empty ones open above;
  *  4. update every sieve's cached reach(S_θ)/f(S_θ) *incrementally*: a new
  *     edge (u,v) extends reach(S) iff u ∈ reach(S), in which case
  *     reach(S) ∪= reach(v) — the candidate reach-sets from step 3 are reused,
  *     so this is exact set algebra with no further oracle calls;
  *  5. sieve each candidate into every non-full threshold set whose θ its
  *     marginal gain |reach(v) \ reach(S)| meets, counted over the list
  *     (one oracle call per evaluation, Alg. 1 lines 8–11).
  *
  * The oracle-call ledger therefore counts exactly the f evaluations the
  * paper's complexity analysis counts: O(b · ε⁻¹ log k) per batch (Theorem 3).
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
  private var sieves        = Array.empty[Sieve] // sieves(j) is S_θi for exponent i = base + j
  private var base          = 0
  private val logBase       = math.log1p(eps)

  /** θ_i = (1+ε)^i / (2k). */
  private def thetaOf(i: Int): Double = math.pow(1.0 + eps, i) / (2.0 * k)

  /** Largest exponent i with (1+ε)^i ≤ x. */
  private def floorExp(x: Double): Int = math.floor(math.log(x) / logBase + 1e-9).toInt

  /** Alg. 1 lines 5–7: slide the window to the exponents i with
    * (1+ε)^i ∈ [Δ, 2kΔ], keeping the sieves of exponents still inside it.
    */
  private def refreshThresholds(): Unit = {
    if (deltaMax <= 0) return
    val lo = math.ceil(math.log(deltaMax.toDouble) / logBase - 1e-9).toInt
    val hi = floorExp(2.0 * k * deltaMax)
    if (lo != base || hi - lo + 1 != sieves.length) {
      val old = sieves
      sieves = Array.tabulate(hi - lo + 1) { j =>
        val o = lo + j - base
        if (o >= 0 && o < old.length) old(o) else new Sieve(k)
      }
      base = lo
    }
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
  private[core] def feed(arrivals: Seq[SieveAdn.Arrival]): Unit = {
    def sees(a: SieveAdn.Arrival) = a.before < cutoff && cutoff <= a.after
    val n = arrivals.count(sees)
    if (n > 0) {
      val us = new Array[Int](n)
      val vs = new Array[Int](n)
      var e  = 0
      arrivals.foreach(a => if (sees(a)) { us(e) = a.u; vs(e) = a.v; e += 1 })
      update(us, vs)
    }
  }

  /** Steps 2–5 for the inserted edges (us(e), vs(e)): distinct edges,
    * without self-loops, that are in the graph with expiry ≥ `cutoff` and
    * were not visible before. No edges, no work.
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
    while (j < sieves.length) {
      val s = sieves(j)
      if (s.size > 0) {
        e = 0
        while (e < us.length) {
          if (s.reach.get(us(e)) && !s.reach.get(vs(e))) s.add(vReach(e))
          e += 1
        }
      }
      j += 1
    }

    // Sieving pass (Alg. 1 lines 8–11): one oracle call per marginal gain,
    // |r \ reach(S)| counted over the candidate's reach-set r against the
    // integer threshold ⌈θ⌉.
    // Submodularity pruning: δ_S(v) ≤ f({v}), so thresholds above f({v})
    // are guaranteed rejections — skip them without an oracle call.
    c = 0
    while (c < cand.length) {
      val v   = cand(c)
      val rv  = candReach(c)
      val top = math.min(floorExp(2.0 * k * rv.length) - base, sieves.length - 1)
      var j   = 0
      while (j <= top) {
        val s = sieves(j)
        if (s.size < k && !s.contains(v)) {
          counter.inc()
          if (s.gainMeets(v, rv, math.ceil(thetaOf(base + j)).toInt)) s.accept(v, rv)
        }
        j += 1
      }
      c += 1
    }
  }

  /** g = f(S_{θ*}): value of the best sieve set (Alg. 1 line 12). Cached
    * values are maintained exactly, so this is free of oracle calls.
    */
  def currentValue: Int = {
    var best = 0
    var j    = 0
    while (j < sieves.length) { if (sieves(j).value > best) best = sieves(j).value; j += 1 }
    best
  }

  /** The best sieve set S_{θ*}; ties go to the lowest θ. */
  def solution: Seq[Int] =
    if (sieves.isEmpty) Nil else sieves.maxBy(_.value).seeds

  /** Number of live threshold sets |Θ| (for complexity tests). */
  def thresholdCount: Int = sieves.length

  /** Current Δ (max singleton spread observed). */
  def delta: Int = deltaMax

  /** A new instance over the same graph and oracle counter at a lower
    * `cutoff`, starting from this one's Δ and sieves — HistApprox instance
    * creation. It has yet to be fed the edges with expiry in
    * [cutoff, this.cutoff).
    */
  private[core] def copyInstance(cutoff: Int): SieveAdn = {
    require(cutoff < this.cutoff, s"copy cutoff $cutoff must be below ${this.cutoff}")
    val c = new SieveAdn(k, eps, counter, graph, cutoff)
    c.deltaMax = deltaMax
    c.sieves = sieves.map(_.copySieve())
    c.base = base
    c
  }
}

object SieveAdn {

  /** A distinct non-loop edge of a batch just added to a shared graph, with
    * its graph expiry before and after the addition: an instance with cutoff
    * f had not seen it and now does iff before < f ≤ after.
    */
  private[core] final case class Arrival(u: Int, v: Int, before: Int, after: Int)

  /** Add `batch` to `tdn`, whose live graph is `graph`, and return its arrivals. */
  private[core] def addTo(tdn: Tdn, graph: Digraph, batch: Seq[TimedEdge]): Seq[Arrival] = {
    tdn.check(batch)
    val pairs  = batch.iterator.filter(e => e.u != e.v).map(e => (e.u, e.v)).distinct.toVector
    val before = pairs.map { case (u, v) => graph.expiryOf(u, v) }
    tdn.add(batch)
    pairs.lazyZip(before).map { case ((u, v), b) => Arrival(u, v, b, graph.expiryOf(u, v)) }
  }

  /** One threshold's sieve set S_θ, members(0 until size), with
    * exactly-maintained f(S_θ) = value = |reach(S_θ)|.
    */
  private final class Sieve(k: Int) {
    val members        = new Array[Int](k)
    var size           = 0
    var reach: JBitSet = new JBitSet(0)
    var value          = 0

    def seeds: Seq[Int] = members.take(size).toSeq

    def contains(v: Int): Boolean = {
      var i = 0
      while (i < size && members(i) != v) i += 1
      i < size
    }

    /** Whether δ_S(v) = |r \ reach(S)| ≥ need, for v's reach-set r. Counts
      * only until the answer is known; a v in reach(S) has all of r there.
      */
    def gainMeets(v: Int, r: Array[Int], need: Int): Boolean = {
      if (reach.get(v)) return need <= 0
      val n = r.length
      var g = 0
      var i = 0
      while (i < n && g < need && g + n - i >= need) {
        if (!reach.get(r(i))) g += 1
        i += 1
      }
      g >= need
    }

    /** reach(S) ∪= r, keeping `value` exact. A union that grows the bitset
      * is re-trimmed (`clone` trims), since in-place growth doubles its
      * words; so the words always end at the highest node reached.
      */
    def add(r: Array[Int]): Unit = {
      val bits = reach.size
      value += Digraph.addAll(r, reach)
      if (reach.size != bits) reach = reach.clone().asInstanceOf[JBitSet]
    }

    /** Take v, with reach-set r, into S. */
    def accept(v: Int, r: Array[Int]): Unit = {
      members(size) = v
      size += 1
      add(r)
    }

    def copySieve(): Sieve = {
      val s = new Sieve(members.length)
      System.arraycopy(members, 0, s.members, 0, size)
      s.size = size
      s.reach = reach.clone().asInstanceOf[JBitSet]
      s.value = value
      s
    }
  }
}
