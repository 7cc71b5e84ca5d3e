package repro.core

import scala.collection.mutable
import repro.tdn.{Tdn, TimedEdge}

/** HistApprox (Alg. 3): approximates BasicReduction's histogram of L SieveADN
  * outputs g_t(l) by keeping only a sparse, ε-redundancy-pruned index set x_t
  * of active instances. (1/3 − ε)-approximate (Theorem 7) with
  * O(ε⁻¹ log k) live instances instead of L (Theorem 8).
  *
  * The tracker owns the TDN G_t, and its one live graph is shared by every
  * instance: an instance is a cutoff c over that graph (see [[SieveAdn]]), so
  * instances are keyed by c = t + l and the indices l = c − t shift left by
  * themselves as t advances. Instance creation in the "has successor" case
  * copies the successor's Δ and sieves and back-fills the graph's edges with
  * expiry in [c, c*) — remaining lifetime in [l, l*) — read from the TDN's
  * expiry index.
  */
final class HistApprox(
    val k: Int,
    val eps: Double,
    val maxLifetime: Int,
    val universe: Int,
    val counter: OracleCounter = new OracleCounter,
) extends StreamingInfluenceAlgo {
  require(maxLifetime >= 1, "L must be >= 1")

  private val tdn   = new Tdn
  private val graph = tdn.toDigraph(universe)
  // Active instances keyed by cutoff: keys ascending = x_1 < x_2 < ...
  private val hist = mutable.TreeMap.empty[Int, SieveAdn]

  override def name: String = "HistApprox"

  /** Active index set x_t, ascending. */
  def indices: Seq[Int] = hist.keys.toSeq.map(_ - tdn.now)

  /** Number of live SieveADN instances |x_t|. */
  def activeInstances: Int = hist.size

  /** The TDN state (exposed for tests and fair cross-algorithm evaluation). */
  def currentTdn: Tdn = tdn

  /** g_t(l) for an active index l. */
  def valueAt(l: Int): Int = hist(tdn.now + l).currentValue

  override def observe(batch: Seq[TimedEdge]): Unit = {
    val capped = batch.map(e => if (e.lifetime > maxLifetime) e.copy(lifetime = maxLifetime) else e)
    tdn.check(capped) // reject a bad batch before its first group changes state
    // Alg. 3 line 3: process lifetime groups in increasing l.
    capped.groupBy(_.lifetime).toSeq.sortBy(_._1).foreach { case (l, group) =>
      processEdges(tdn.now + l, SieveAdn.addTo(tdn, graph, group))
      reduceRedundancy()
    }
  }

  /** Alg. 3 ProcessEdges(Ē_l) for a group with expiry c, already in G_t. */
  private def processEdges(c: Int, arrivals: Seq[SieveAdn.Arrival]): Unit = {
    // Alg. 3 line 17: feed every active instance with index ≤ l.
    hist.rangeTo(c).valuesIterator.foreach(_.feed(arrivals))
    if (!hist.contains(c)) {
      // Fig. 6(c): copy the successor at c*; Fig. 6(b): with none, start
      // empty with c* = ∞ (no alive edge has expiry ≥ c, a tested
      // invariant). Either way, back-fill the alive edges the instance has
      // not seen, the group included: graph expiry in [c, c*).
      val succ = hist.rangeFrom(c).valuesIterator.nextOption()
      val inst = succ.fold(new SieveAdn(k, eps, counter, graph, c))(_.copyInstance(c))
      val hi   = succ.fold(Int.MaxValue)(_.cutoff)
      inst.update(tdn.edgesExpiringIn(c, hi))
      hist(c) = inst
    }
  }

  /** Alg. 3 ReduceRedundancy over one snapshot of the instances' outputs. */
  private def reduceRedundancy(): Unit = {
    val keys   = hist.keysIterator.toArray
    val values = hist.valuesIterator.map(_.currentValue).toArray
    HistApprox.redundant(values, eps).foreach(p => hist.remove(keys(p)))
  }

  override def querySolution: Seq[Int] =
    hist.headOption.map(_._2.solution).getOrElse(Nil)

  /** g_t(x_1): value of the output instance. */
  def currentValue: Int = hist.headOption.map(_._2.currentValue).getOrElse(0)

  override def endStep(): Unit = {
    // Alg. 3 lines 5–7: terminate A_1 if x_1 = 1; the other indices shift
    // left as the clock advances under their fixed cutoffs.
    hist.remove(tdn.now + 1)
    tdn.advance()
  }

  override def oracleCalls: Long = counter.calls
}

object HistApprox {

  /** Positions that ReduceRedundancy kills, given the outputs g(x_1), g(x_2),
    * … in index order: walking survivors from the first, kill every position
    * strictly between i and the largest j > i with g(j) ≥ (1−ε)·g(i), then
    * resume at j. Killing an instance changes no other instance's output, so
    * one snapshot of the outputs serves the whole pass.
    */
  private[core] def redundant(g: Array[Int], eps: Double): Seq[Int] = {
    val dead = Seq.newBuilder[Int]
    var i    = 0
    while (i < g.length) {
      var j = g.length - 1
      while (j > i && g(j) < (1.0 - eps) * g(i)) j -= 1
      dead ++= (i + 1 until j)
      i = math.max(j, i + 1)
    }
    dead.result()
  }
}
