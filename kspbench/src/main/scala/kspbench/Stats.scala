package kspbench

/** Summary statistics and the result line the benchmark prints. */
object Stats {

  /** Percentile `p` (0–100) with linear interpolation between closest ranks,
    * as NumPy's default: p50 of an even-sized sample is the mean of the two
    * middle values.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p >= 0 && p <= 100, s"percentile out of range: $p")
    val sorted = xs.sorted
    val pos = p / 100.0 * (sorted.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, sorted.size - 1)
    sorted(lo) + (pos - lo) * (sorted(hi) - sorted(lo))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Samples that lie strictly above percentile `p`: a tail percentile is
    * only reported when at least ten samples back it.
    */
  def samplesBeyond(n: Int, p: Double): Int = n - math.ceil(p / 100.0 * n).toInt

  /** Operations per second from a count and the nanoseconds they took. */
  def perSecond(count: Long, nanos: Long): Double = {
    require(nanos > 0, "throughput over an empty interval")
    count / (nanos / 1e9)
  }

  def ms(nanos: Long): Double = nanos / 1e6

  /** One metric as printed: name, measured value, unit. */
  final case class Metric(name: String, value: Double, unit: String)

  /** The last stdout line of a run: one JSON object with exactly the keys
    * `correct`, `attempted`, `failed` and `metrics`. Values keep every digit
    * (`Double.toString` round-trips).
    */
  def resultJson(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    metrics.foreach(m => require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}"))
    val body = metrics.map { m =>
      s""""${m.name}": {"value": ${java.lang.Double.toString(m.value)}, "unit": "${m.unit}"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}
