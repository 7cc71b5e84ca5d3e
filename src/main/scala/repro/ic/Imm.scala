package repro.ic

/** IMM (Tang, Shi, Xiao — SIGMOD 2015), reimplemented from the paper's formulas:
  * martingale-based sampling-phase lower bound estimation, then node selection
  * by greedy max-cover over RR sets. Designed for *static* graphs — the bench
  * harness rebuilds it from scratch at every query, as §V-C does.
  *
  * An RR-count safety cap keeps rebuild cost bounded at repro scale; the cap is
  * far above what the formulas request on our graph sizes, so it only guards
  * against degenerate OPT estimates.
  */
object Imm {

  /** ln C(n, k) via lgamma. */
  private[ic] def logChoose(n: Int, k: Int): Double = {
    if (k <= 0 || k >= n) return 0.0
    def lg(x: Double) = {
      // Stirling with correction; fine for n up to millions.
      if (x < 1.5) 0.0
      else (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.Pi) + 1.0 / (12 * x)
    }
    lg(n + 1.0) - lg(k + 1.0) - lg(n - k + 1.0)
  }

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
    val l       = 1.0
    val logn    = math.log(n.toDouble)
    val logcnk  = logChoose(n, k)
    val log2n   = math.max(1.0, math.log(n.toDouble) / math.log(2.0))

    val epsP    = math.sqrt(2.0) * eps
    val lambdaP = (2.0 + 2.0 * epsP / 3.0) * (logcnk + l * logn + math.log(log2n)) * n / (epsP * epsP)

    val rr  = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    var lb  = 1.0
    var i   = 1
    var hit = false
    while (i < log2n && !hit) {
      val x      = n / math.pow(2.0, i)
      val thetaI = math.min(maxRR.toDouble, lambdaP / x).toLong
      while (rr.length < thetaI)
        rr += RRSets.sample(ic, ic.nodes(rng.nextInt(n)), rng)
      val (si, cov) = RRSets.maxCover(RRSets.index(rr), k)
      val est       = n.toDouble * cov / rr.length
      if (est >= (1.0 + epsP) * x) {
        lb = est / (1.0 + epsP)
        hit = true
      } else if (si.isEmpty) {
        hit = true // degenerate graph: nothing to cover
      }
      i += 1
    }

    val alpha      = math.sqrt(l * logn + math.log(2.0))
    val beta       = math.sqrt((1.0 - 1.0 / math.E) * (logcnk + l * logn + math.log(2.0)))
    val lambdaStar = 2.0 * n * math.pow((1.0 - 1.0 / math.E) * alpha + beta, 2) / (eps * eps)
    val theta      = math.min(maxRR.toDouble, lambdaStar / math.max(lb, 1.0)).toLong

    while (rr.length < theta)
      rr += RRSets.sample(ic, ic.nodes(rng.nextInt(n)), rng)

    RRSets.maxCover(RRSets.index(rr), k)._1
  }
}
