package repro.core

import repro.tdn.TimedEdge

/** HistApprox (Alg. 3): approximates BasicReduction's histogram of L SieveADN
  * outputs g_t(l) by keeping only a sparse, ε-redundancy-pruned index set x_t
  * of active instances. (1/3 − ε)-approximate (Theorem 7) with
  * O(ε⁻¹ log k) live instances instead of L (Theorem 8).
  *
  * The instance list, its feed and its shift are [[InstanceListTracker]]'s.
  * Instance creation in the "has successor" case copies the successor's Δ
  * and sieves and back-fills the graph's edges with expiry in [c, c*) —
  * remaining lifetime in [l, l*) — read from the TDN's expiry index. A
  * creation that the group's ReduceRedundancy would undo whatever its output
  * (see [[HistApprox.doomed]]) is skipped, which leaves x_t and every output
  * unchanged and saves its back-fill's oracle calls.
  */
final class HistApprox(
    k: Int,
    eps: Double,
    maxLifetime: Int,
    universe: Int,
) extends InstanceListTracker(k, eps, maxLifetime, universe) {

  override def name: String = "HistApprox"

  /** Active index set x_t, ascending. */
  def indices: Seq[Int] = insts.map(_.cutoff - tdn.now).toSeq

  /** g_t(l) for an active index l. */
  def valueAt(l: Int): Int = insts.find(_.cutoff == tdn.now + l).get.currentValue

  override protected def observeCapped(batch: Seq[TimedEdge]): Unit = {
    // Alg. 3 line 3: process lifetime groups in increasing l.
    batch.groupBy(_.lifetime).toSeq.sortBy(_._1).foreach { case (l, group) =>
      feed(SieveAdn.addTo(tdn, graph, group)) // Alg. 3 line 17: the instances with index ≤ l
      reduceRedundancy(processEdges(tdn.now + l))
    }
  }

  /** Alg. 3 ProcessEdges(Ē_l) for a group with expiry c, already in G_t and
    * fed. Returns every live instance's output, in index order, for
    * ReduceRedundancy.
    */
  private def processEdges(c: Int): Array[Int] = {
    val p = indexOf(c)
    val g = outputs
    if ((p < insts.length && insts(p).cutoff == c) || HistApprox.doomed(g, p, eps)) return g
    // Fig. 6(c): copy the successor at c*; Fig. 6(b): with none, start empty
    // with c* = ∞ (no alive edge has expiry ≥ c, a tested invariant). Either
    // way, back-fill the alive edges the instance has not seen, the group
    // included: graph expiry in [c, c*).
    val succ = insts.lift(p)
    val inst = succ.fold(newInstance(c))(_.copyInstance(c))
    val (us, vs) = tdn.edgesExpiringIn(c, succ.fold(Int.MaxValue)(_.cutoff))
    inst.update(us, vs)
    insts.insert(p, inst)
    outputs
  }

  private def outputs: Array[Int] = Array.tabulate(insts.length)(insts(_).currentValue)

  /** Alg. 3 ReduceRedundancy over one snapshot `g` of the instances' outputs. */
  private def reduceRedundancy(g: Array[Int]): Unit =
    HistApprox.redundant(g, eps).reverseIterator.foreach(p => insts.remove(p))
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
