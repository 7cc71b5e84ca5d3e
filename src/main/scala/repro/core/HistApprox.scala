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
  * instances are ordered by c = t + l and the indices l = c − t shift left by
  * themselves as t advances. Instance creation in the "has successor" case
  * copies the successor's Δ and sieves and back-fills the graph's edges with
  * expiry in [c, c*) — remaining lifetime in [l, l*) — read from the TDN's
  * expiry index. A creation that the group's ReduceRedundancy would undo
  * whatever its output (see [[HistApprox.doomed]]) is skipped, which leaves
  * x_t and every output unchanged and saves its back-fill's oracle calls.
  */
final class HistApprox(
    val k: Int,
    val eps: Double,
    val maxLifetime: Int,
    val universe: Int,
) extends StreamingInfluenceAlgo {
  require(maxLifetime >= 1, "L must be >= 1")

  private val counter = new OracleCounter
  private val tdn     = new Tdn
  private val graph   = tdn.toDigraph(universe)
  // Active instances ascending by cutoff: x_1 < x_2 < ...
  private val insts = mutable.ArrayBuffer.empty[SieveAdn]

  override def name: String = "HistApprox"

  /** Active index set x_t, ascending. */
  def indices: Seq[Int] = insts.map(_.cutoff - tdn.now).toSeq

  /** The TDN state (exposed for tests and fair cross-algorithm evaluation). */
  def currentTdn: Tdn = tdn

  /** g_t(l) for an active index l. */
  def valueAt(l: Int): Int = insts.find(_.cutoff == tdn.now + l).get.currentValue

  override def observe(batch: Seq[TimedEdge]): Unit = {
    val capped = batch.map(e => if (e.lifetime > maxLifetime) e.copy(lifetime = maxLifetime) else e)
    tdn.check(capped) // reject a bad batch before its first group changes state
    // Alg. 3 line 3: process lifetime groups in increasing l.
    capped.groupBy(_.lifetime).toSeq.sortBy(_._1).foreach { case (l, group) =>
      reduceRedundancy(processEdges(tdn.now + l, SieveAdn.addTo(tdn, graph, group)))
    }
  }

  /** Alg. 3 ProcessEdges(Ē_l) for a group with expiry c, already in G_t.
    * Returns every live instance's output, in index order, for
    * ReduceRedundancy.
    */
  private def processEdges(c: Int, arrivals: Array[SieveAdn.Arrival]): Array[Int] = {
    var p = 0 // instances before p have cutoff < c
    while (p < insts.length && insts(p).cutoff < c) p += 1
    val exists = p < insts.length && insts(p).cutoff == c
    // Alg. 3 line 17: feed every active instance with index ≤ l.
    val fed = if (exists) p + 1 else p
    var i   = 0
    while (i < fed) { insts(i).feed(arrivals); i += 1 }
    val g = new Array[Int](insts.length)
    i = 0
    while (i < g.length) { g(i) = insts(i).currentValue; i += 1 }
    if (exists || HistApprox.doomed(g, p, eps)) return g
    // Fig. 6(c): copy the successor at c*; Fig. 6(b): with none, start empty
    // with c* = ∞ (no alive edge has expiry ≥ c, a tested invariant). Either
    // way, back-fill the alive edges the instance has not seen, the group
    // included: graph expiry in [c, c*).
    val succ = insts.lift(p)
    val inst = succ.fold(new SieveAdn(k, eps, counter, graph, c))(_.copyInstance(c))
    val (us, vs) = tdn.edgesExpiringIn(c, succ.fold(Int.MaxValue)(_.cutoff))
    inst.update(us, vs)
    insts.insert(p, inst)
    val withNew = new Array[Int](g.length + 1)
    System.arraycopy(g, 0, withNew, 0, p)
    withNew(p) = inst.currentValue
    System.arraycopy(g, p, withNew, p + 1, g.length - p)
    withNew
  }

  /** Alg. 3 ReduceRedundancy over one snapshot `g` of the instances' outputs. */
  private def reduceRedundancy(g: Array[Int]): Unit =
    HistApprox.redundant(g, eps).reverseIterator.foreach(p => insts.remove(p))

  override def querySolution: Seq[Int] = insts.headOption.map(_.solution).getOrElse(Nil)

  /** g_t(x_1): value of the output instance. */
  def currentValue: Int = insts.headOption.map(_.currentValue).getOrElse(0)

  override def endStep(): Unit = {
    // Alg. 3 lines 5–7: terminate A_1 if x_1 = 1; the other indices shift
    // left as the clock advances under their fixed cutoffs.
    if (insts.nonEmpty && insts.head.cutoff == tdn.now + 1) insts.remove(0)
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

  /** Whether ReduceRedundancy must kill a new instance inserted at position
    * p of the outputs g (the live instances', after the group's feed),
    * whatever its own output: it is not x_1 (p > 0), and some instance after
    * it has g ≥ (1−ε)·g(x_1), so the first segment's survivor j lies past it.
    * Later segments are not checked: there the new instance can itself be
    * an earlier survivor's j.
    */
  private[core] def doomed(g: Array[Int], p: Int, eps: Double): Boolean = {
    if (p == 0) return false
    var j = g.length - 1
    while (j >= p && g(j) < (1.0 - eps) * g(0)) j -= 1
    j >= p
  }
}
