package repro.core

import repro.tdn.TimedEdge

/** BasicReduction (Alg. 2): L SieveADN instances, where instance A_i processes
  * every arriving edge with lifetime ≥ i. After each step the head instance
  * (A_1, which by construction has processed exactly the alive edges of G_t)
  * produces the solution and is terminated; the rest shift left; a fresh
  * instance joins at the tail. The instance list, its feed and its shift are
  * [[InstanceListTracker]]'s; A_i at time t is the cutoff t + i.
  *
  * The instances are held as runs: a run is a maximal range of consecutive
  * cutoffs whose instances were fed the same updates, kept as one SieveADN
  * at the run's highest cutoff. Run j stands for the cutoffs (cutoff of run
  * j − 1, cutoff of run j], the head run's from t + 1.
  * Invariant: no alive edge has an expiry between a run's lowest and highest
  * cutoff, so every member views the same graph and the one SieveADN is each
  * member's exact state; equivalently, every alive edge's expiry is the
  * highest cutoff of a run. An arrival whose expiry rises from b to a is seen
  * by the cutoffs in (b, a]. If the pair was alive, a run already ends at b,
  * so only the run across a + 1 splits, its lower part taking a copy; then
  * every run in (b, a] is fed once, its calls credited once per member.
  *
  * (1/2 − ε)-approximate (Theorem 4); time/space are L× SieveADN (Theorem 5) —
  * this is the paper's deliberately heavy baseline that HistApprox improves.
  */
final class BasicReduction(
    k: Int,
    eps: Double,
    maxLifetime: Int,
    universe: Int,
) extends InstanceListTracker(k, eps, maxLifetime, universe) {
  insts.append(newInstance(maxLifetime))

  override def name: String = "BasicReduction"

  /** The run holding instance A_i (1-based), exposed for invariant tests. */
  def instance(i: Int): SieveAdn = {
    require(i >= 1 && i <= maxLifetime, s"instance index $i outside 1..$maxLifetime")
    insts(indexOf(tdn.now + i))
  }

  /** Number of runs holding the L instances. */
  private[core] def runCount: Int = insts.length

  /** The lowest cutoff of run j. */
  private def low(j: Int): Int = if (j == 0) tdn.now + 1 else insts(j - 1).cutoff + 1

  override protected def members(j: Int): Int = insts(j).cutoff - low(j) + 1

  override protected def observeCapped(batch: Seq[TimedEdge]): Unit = {
    // Alg. 2 line 3: A_i takes the new edges with lifetime ≥ i. A_i sees an
    // arrival iff before < t + i ≤ after. A run already ends at before if the
    // pair was alive, so splitting the run across after + 1 leaves each run
    // holding only cutoffs that see the arrival or only cutoffs that do not.
    // The cutoffs up to after take a copy, which by the invariant misses no
    // edge.
    val arrivals = SieveAdn.addTo(tdn, graph, batch)
    var a        = 0
    while (a < arrivals.length) {
      val e = arrivals(a)
      if (e.after > e.before && e.after < insts.last.cutoff) {
        val j = indexOf(e.after + 1)
        if (low(j) <= e.after) insts.insert(j, insts(j).copyInstance(e.after))
      }
      a += 1
    }
    feed(arrivals)
  }

  override def endStep(): Unit = {
    super.endStep()
    // Create A_L for t+1: it has seen nothing, as has a last run never fed.
    if (insts.nonEmpty && insts.last.delta == 0) insts.removeLast()
    insts.append(newInstance(tdn.now + maxLifetime))
  }
}
