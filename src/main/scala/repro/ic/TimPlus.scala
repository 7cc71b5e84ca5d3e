package repro.ic

/** TIM+ (Tang, Xiao, Shi — SIGMOD 2014), reimplemented from the paper's
  * two-phase formulas: KPT* estimation by RR-width sampling, then θ = λ/KPT*
  * RR sets and greedy max-cover node selection. Static-graph method, rebuilt
  * from scratch at every query (as in §V-C). Same RR-count safety cap as IMM.
  */
object TimPlus {

  def select(
      ic: IcGraph,
      k: Int,
      eps: Double,
      rng: java.util.Random,
      maxRR: Int = 50000,
  ): Seq[Int] = {
    val n = ic.nodeCount
    if (n == 0) return Nil
    if (n <= k) return ic.nodes.toSeq
    val m = math.max(1, ic.edgeCount)

    val l     = 1.0
    val logn  = math.log(n.toDouble)
    val log2n = math.max(1.0, logn / math.log(2.0))

    // In-degree per node for the RR width w(R) = # edges pointing into R.
    val inDeg = new Array[Int](ic.universe)
    ic.nodes.foreach { v =>
      val in = ic.inBuf(v)
      if (in != null) inDeg(v) = in.length
    }
    def width(r: Array[Int]): Int = { var s = 0; r.foreach(v => s += inDeg(v)); s }

    // Phase 1: KPT estimation (TIM Alg. 2).
    var kpt = 1.0
    var i   = 1
    var hit = false
    while (i < log2n && !hit) {
      val ci    = math.min(maxRR.toDouble, (6.0 * l * logn + 6.0 * math.log(log2n)) * math.pow(2.0, i)).toInt
      var kappa = 0.0
      var j     = 0
      while (j < ci) {
        val r = RRSets.sample(ic, ic.nodes(rng.nextInt(n)), rng)
        kappa += 1.0 - math.pow(1.0 - width(r).toDouble / m, k)
        j += 1
      }
      if (kappa / ci > 1.0 / math.pow(2.0, i)) {
        kpt = n.toDouble * kappa / (2.0 * ci)
        hit = true
      }
      i += 1
    }

    // Phase 2: θ = λ / KPT* RR sets, then greedy max-cover.
    val lambda = (8.0 + 2.0 * eps) * n * (l * logn + Imm.logChoose(n, k) + math.log(2.0)) / (eps * eps)
    val theta  = math.max(1L, math.min(maxRR.toDouble, lambda / math.max(kpt, 1.0)).toLong)

    val rr = (0L until theta).map(_ => RRSets.sample(ic, ic.nodes(rng.nextInt(n)), rng))
    RRSets.maxCover(RRSets.index(rr), k)._1
  }
}
