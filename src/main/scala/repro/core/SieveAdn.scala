package repro.core

import java.util.{BitSet => JBitSet}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
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
  *     for each inserted edge (u,v), {v} ∪ reverseReach(u);
  *  3. evaluate f({v}) for each candidate (one oracle call each), updating
  *     Δ = max singleton spread, and slide the threshold window
  *     Θ = {(1+ε)^i/(2k) : (1+ε)^i ∈ [Δ, 2kΔ]} (Alg. 1 lines 4–7): one sieve
  *     per exponent i, held contiguously from the window's low end; as Δ
  *     grows, sieves below the new low end drop and empty ones open above;
  *  4. update every sieve's cached reach(S_θ)/f(S_θ) *incrementally*: a new
  *     edge (u,v) extends reach(S) iff u ∈ reach(S), in which case
  *     reach(S) ∪= reach(v) — the candidate reach-sets from step 3 are reused,
  *     so this is exact set algebra with no further oracle calls;
  *  5. sieve each candidate into every non-full threshold set whose θ its
  *     marginal gain meets (one oracle call per evaluation, Alg. 1 lines 8–11).
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
        if (o >= 0 && o < old.length) old(o) else new Sieve
      }
      base = lo
    }
  }

  /** Candidate set V̄: for each newly inserted edge (u,v), v plus every node
    * that can reach u (their spread grew). Computed on the post-insert graph;
    * reverse BFS is bookkeeping, not an oracle call.
    */
  private def candidates(inserted: Seq[(Int, Int)]): Seq[Int] = {
    val acc = new JBitSet(universe)
    inserted.foreach { case (u, v) =>
      acc.set(v)
      acc.or(graph.reverseReach(u, cutoff))
    }
    val out = new ArrayBuffer[Int](acc.cardinality())
    var i   = acc.nextSetBit(0)
    while (i >= 0) { out += i; i = acc.nextSetBit(i + 1) }
    out.toSeq
  }

  /** Process one batch of arriving edges into a stand-alone instance's own
    * graph (the ADN view: additions only). A batch with an edge outside the
    * universe changes nothing.
    */
  def process(batch: Seq[(Int, Int)]): Unit = {
    require(cutoff == Int.MinValue, "only a stand-alone instance adds edges to its graph")
    batch.foreach { case (u, v) => graph.checkEdge(u, v) }
    update(batch.filter { case (u, v) => graph.addEdge(u, v) })
  }

  /** Feed the edges of a batch just added to the shared graph that this
    * instance has not seen and now sees.
    */
  private[core] def feed(arrivals: Seq[SieveAdn.Arrival]): Unit =
    update(arrivals.collect { case a if a.before < cutoff && cutoff <= a.after => (a.u, a.v) })

  /** Steps 2–5 for `inserted`: distinct edges, without self-loops, that are
    * in the graph with expiry ≥ `cutoff` and were not visible before.
    */
  private[core] def update(inserted: Seq[(Int, Int)]): Unit = {
    if (inserted.isEmpty) return

    val cand = candidates(inserted)

    // Δ update (Alg. 1 line 4) — f({v}) for each candidate, one call each;
    // the reach-sets are retained for the incremental update and sieving pass.
    val candReach = mutable.LinkedHashMap.empty[Int, JBitSet]
    cand.foreach { v =>
      counter.inc()
      val r = graph.reach(Iterator.single(v), cutoff)
      candReach(v) = r
      val f1 = r.cardinality()
      if (f1 > deltaMax) deltaMax = f1
    }
    refreshThresholds()

    // Exact incremental maintenance of cached reach(S_θ)/f(S_θ): any path
    // from S to a newly reachable node crosses a first inserted edge (u,v)
    // whose source u was already in the old reach(S), and reach(v) on the
    // post-insert graph is transitively complete — so a single sweep or-ing
    // candidate reach-sets is exact. Set algebra only, no oracle calls.
    sieves.foreach { s =>
      if (s.members.nonEmpty) {
        inserted.foreach { case (u, v) =>
          if (s.reach.get(u)) s.reach.or(candReach(v))
        }
        s.value = s.reach.cardinality()
      }
    }

    // Sieving pass (Alg. 1 lines 8–11): one oracle call per marginal gain.
    // Submodularity pruning: δ_S(v) ≤ f({v}), so thresholds above f({v})
    // are guaranteed rejections — skip them without an oracle call.
    candReach.foreach { case (v, rv) =>
      val top = math.min(floorExp(2.0 * k * rv.cardinality()) - base, sieves.length - 1)
      var j   = 0
      while (j <= top) {
        val s = sieves(j)
        if (s.members.length < k && !s.members.contains(v)) {
          counter.inc()
          val u = s.reach.clone().asInstanceOf[JBitSet]
          u.or(rv)
          val gain = u.cardinality() - s.value
          if (gain >= thetaOf(base + j)) {
            s.members += v
            s.reach = u
            s.value += gain
          }
        }
        j += 1
      }
    }
  }

  /** g = f(S_{θ*}): value of the best sieve set (Alg. 1 line 12). Cached
    * values are maintained exactly, so this is free of oracle calls.
    */
  def currentValue: Int = sieves.foldLeft(0)((best, s) => math.max(best, s.value))

  /** The best sieve set S_{θ*}; ties go to the lowest θ. */
  def solution: Seq[Int] =
    if (sieves.isEmpty) Nil else sieves.maxBy(_.value).members.toSeq

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

  /** One threshold's sieve set S_θ with exactly-maintained f(S_θ), reach(S_θ). */
  private final class Sieve {
    val members        = new ArrayBuffer[Int](4)
    var reach: JBitSet = new JBitSet(0)
    var value: Int     = 0

    def copySieve(): Sieve = {
      val s = new Sieve
      s.members ++= members
      s.reach = reach.clone().asInstanceOf[JBitSet]
      s.value = value
      s
    }
  }
}
