package repro.core

import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors, ThreadFactory}
import java.util.concurrent.atomic.AtomicInteger

/** The process's one worker pool: `availableProcessors` daemon threads that
  * run the local deployment's per-subgraph index work (build, maintenance)
  * and its per-query work (threads ≙ the paper's SubgraphBolts and
  * QueryBolts).
  */
object WorkerPool {
  private final class Worker(r: Runnable, name: String) extends Thread(r, name)

  private lazy val pool: ExecutorService =
    Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors, new ThreadFactory {
      private val n = new AtomicInteger
      def newThread(r: Runnable): Thread = {
        val t = new Worker(r, s"ksp-dg-worker-${n.incrementAndGet()}")
        t.setDaemon(true)
        t
      }
    })

  /** `xs.map(f)` with the calls spread over the pool; results come back in
    * input order. Runs inline for at most one item, or when called from a
    * pool thread, so nested use cannot deadlock. Waits for every call; if
    * any failed, rethrows the first failure in input order as thrown by `f`.
    */
  def map[A, B](xs: Seq[A])(f: A => B): Seq[B] =
    if (xs.sizeIs <= 1 || Thread.currentThread.isInstanceOf[Worker]) xs.map(f)
    else {
      val futures = xs.map(x => pool.submit(new Callable[B] { def call(): B = f(x) }))
      val outcomes = futures.map { fu =>
        try Right(fu.get()) catch { case e: ExecutionException => Left(e.getCause) }
      }
      outcomes.map(_.fold(e => throw e, identity))
    }
}
