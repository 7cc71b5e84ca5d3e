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

  /** Alg. 3 line 3: process the lifetime groups in increasing l. One walk
    * over the batch, stably sorted by lifetime, so each group is a range
    * that keeps its edges in batch order; a one-edge batch is one group.
    */
  override protected def observeCapped(edges: Array[TimedEdge]): Unit = {
    java.util.Arrays.sort(edges, HistApprox.byLifetime)
    var from = 0
    while (from < edges.length) {
      val l     = edges(from).lifetime
      var until = from + 1
      while (until < edges.length && edges(until).lifetime == l) until += 1
      feed(tdn.add(edges, from, until)) // Alg. 3 line 17: the instances with index ≤ l
      reduceRedundancy(processEdges(tdn.now + l))
      from = until
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
    val last     = p == insts.length
    val inst     = if (last) newInstance(c) else insts(p).copyInstance(c)
    val (us, vs) = tdn.edgesExpiringIn(c, if (last) Int.MaxValue else insts(p).cutoff)
    inst.update(us, vs)
    insts.insert(p, inst)
    outputs
  }

  /** Every live instance's output g_t(l), in index order. */
  private[core] def outputs: Array[Int] = {
    val g = new Array[Int](insts.length)
    var j = 0
    while (j < g.length) { g(j) = insts(j).currentValue; j += 1 }
    g
  }

  /** Alg. 3 ReduceRedundancy over one snapshot `g` of the instances' outputs. */
  private def reduceRedundancy(g: Array[Int]): Unit = {
    val dead = HistApprox.redundant(g, eps)
    var d    = dead.length - 1
    while (d >= 0) { insts.remove(dead(d)); d -= 1 }
  }
}

object HistApprox {

  private val byLifetime: java.util.Comparator[TimedEdge] = (a, b) => Integer.compare(a.lifetime, b.lifetime)

  /** Positions that ReduceRedundancy kills, given the outputs g(x_1), g(x_2),
    * … in index order: walking survivors from the first, kill every position
    * strictly between i and the largest j > i with g(j) ≥ (1−ε)·g(i), then
    * resume at j. Killing an instance changes no other instance's output, so
    * one snapshot of the outputs serves the whole pass. Ascending.
    */
  private[core] def redundant(g: Array[Int], eps: Double): Array[Int] = {
    val dead = new Array[Int](g.length)
    var n    = 0
    var i    = 0
    while (i < g.length) {
      var j = g.length - 1
      while (j > i && g(j) < (1.0 - eps) * g(i)) j -= 1
      var d = i + 1
      while (d < j) { dead(n) = d; n += 1; d += 1 }
      i = math.max(j, i + 1)
    }
    java.util.Arrays.copyOf(dead, n)
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
